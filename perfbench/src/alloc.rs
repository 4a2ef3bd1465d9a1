//! A counting global allocator for this binary.
//!
//! Counting is armed only inside [`counting`]; everywhere else the
//! allocator pays one relaxed load per call and forwards to the system
//! allocator, so timed runs carry no counter updates. A reallocation
//! counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus optional call and byte counters.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// updates touch only atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since counting was armed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Allocs {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl Allocs {
    /// The counters' current reading (zero while counting is off).
    pub fn now() -> Allocs {
        Allocs {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counts accrued between `earlier` and `self`.
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Run `f` with counting armed from zero; returns its result and the
/// allocations it made. Counting is process-wide, so `f` must be the
/// only thread allocating while it runs.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    /// Disarms on drop, so a panicking `f` leaves later timed runs
    /// uncounted.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::Relaxed);
        }
    }
    CALLS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = {
        let _disarm = Disarm;
        f()
    };
    (out, Allocs::now())
}
