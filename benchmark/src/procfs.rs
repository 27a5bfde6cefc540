//! What the operating system knows about this process: peak resident
//! memory and CPU time from `/proc`, the core count, and a counting
//! allocator. Off Linux the `/proc` readers return `None`, which the result
//! lines print as `null`; the run still passes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system) this process has consumed, over all its
/// threads including ones that already exited.
///
/// Read from `/proc/self/stat` rather than `schedstat`: `schedstat` covers
/// the calling thread only, so the scoped workers of the parallel engine —
/// the very case `proc.cpu_over_wall` exists for — would go uncounted.
/// `utime`/`stime` are in `USER_HZ` ticks, which the Linux ABI fixes at 100.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / 100.0)
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are only reliably split after its *last* closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Cores this process may run on (1 when the platform cannot say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters in front: allocations made and
/// bytes requested while counting is on. Counting is switched on for traced
/// runs only; switched off, each allocation pays one relaxed load.
pub struct CountingAllocator;

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub count: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot { count: self.count - earlier.count, bytes: self.bytes - earlier.bytes }
    }
}

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    // Relaxed throughout: the counters are statistics and publish no data.
    COUNTING.store(on, Ordering::Relaxed);
}

/// The counters now.
pub fn allocations() -> AllocSnapshot {
    AllocSnapshot {
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and `record` neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Forwarded (not left to the default alloc + copy + free) so growth
        // of vectors and strings costs what it costs under `System`.
        record(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_file() {
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 70 30 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(100));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_real_numbers() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(nproc() >= 1);
    }
}
