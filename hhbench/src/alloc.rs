//! A counting global allocator.
//!
//! Counts heap allocations (including reallocations) and the bytes they
//! request, per thread, but only while some [`measure`] call is running:
//! everything else, untraced runs included, pays one relaxed atomic load
//! per allocation. Counts are per thread so a measured call is not polluted
//! by other threads, which also keeps the unit test independent of the test
//! harness's parallelism.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The allocator `main` installs as `#[global_allocator]`.
pub struct Counting;

/// Number of [`measure`] calls in progress, on any thread.
static MEASURING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note(bytes: usize) {
    // Relaxed: the counter publishes no other data.
    if MEASURING.load(Ordering::Relaxed) > 0 {
        // `try_with`: the cells have no destructor, but an allocation made
        // while the thread tears down must never panic inside the
        // allocator.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialized thread-locals,
// which never allocate, so the allocator cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and requested bytes on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count {
    pub allocs: u64,
    pub bytes: u64,
}

fn current() -> Count {
    Count {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Run `f` with counting on and return its result with the allocations it
/// made on this thread.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Count) {
    MEASURING.fetch_add(1, Ordering::Relaxed);
    let before = current();
    let out = f();
    let after = current();
    MEASURING.fetch_sub(1, Ordering::Relaxed);
    (
        out,
        Count {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_calls_report_identical_counts() {
        let work = || {
            let v: Vec<String> = (0..100).map(|i| format!("job-{i}")).collect();
            std::hint::black_box(v.join(",")).len()
        };
        let (a, first) = measure(work);
        let (b, second) = measure(work);
        assert_eq!(a, b);
        assert_eq!(first, second);
        // 100 strings, the vector, and the joined string at least.
        assert!(first.allocs >= 102, "{first:?}");
        assert!(first.bytes > 0);
        let ((), none) = measure(|| ());
        assert_eq!(none, Count::default());
    }
}
