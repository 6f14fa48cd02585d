//! Counting global allocator: heap traffic as a first-class profiled
//! quantity.
//!
//! The workspace's steady-state paths (warm `delta`s, per-tile replans)
//! should allocate like the dirty tiles they touch, not like the field;
//! this module makes that property *measurable* instead of aspirational.
//! [`CountingAlloc`] wraps the system allocator and — only while
//! counting is switched on — tallies every allocation's count and bytes,
//! tracks the live-bytes high-water mark, and lets [`crate::span()`]s
//! attribute the traffic of their window to the phase tree (`alloc_count` / `alloc_bytes` / `alloc_peak` on
//! [`crate::SpanRecord`]).
//!
//! # Gating and overhead
//!
//! Counting is **off by default** and enabled per process via
//! [`set_counting`] (the CLI's `--count-allocs`, the serve daemon, and
//! the S8 bench flip it) or the `MDG_COUNT_ALLOC` environment variable
//! through [`counting_from_env`]. While off, the allocator adds one
//! relaxed atomic load per heap call — the same cost class as a disabled
//! [`crate::Counter`], and within noise on the scale benches (the CI
//! S3 profile-overhead gate covers it).
//!
//! # Attribution model
//!
//! Tallies are kept per thread (`Cell`s in const-initialised TLS — the
//! recording path never allocates, so the allocator cannot recurse) and
//! mirrored into process-wide atomics for [`totals`]. A span opened on a
//! thread observes *that thread's* tallies at open and close, so worker
//! threads' allocations (the `mdg-par` pool opens no spans) land in the
//! process totals but not under any span path. That split is deliberate:
//! the per-phase tree answers "which orchestrated phase allocates", the
//! totals answer "how much does this request allocate at all".
//!
//! # Determinism contract
//!
//! Like the rest of `mdg-obs`, counting only observes: nothing feeds back
//! into algorithm state, so plans are bit-identical with counting on or
//! off (covered by the workspace `obs_equivalence` suite running under
//! `MDG_COUNT_ALLOC=1` in CI).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Process-wide tallies (mirrors of the per-thread cells, relaxed).
static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread tallies; `current`/`peak` track this thread's share of
    /// live bytes so spans can report a high-water mark for their window.
    static TALLY: Tally = const {
        Tally {
            count: Cell::new(0),
            bytes: Cell::new(0),
            current: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

struct Tally {
    count: Cell<u64>,
    bytes: Cell<u64>,
    current: Cell<u64>,
    peak: Cell<u64>,
}

/// Switch allocation counting on or off (off by default). Independent of
/// [`crate::set_enabled`]: spans only pick allocation columns up while
/// *both* are on, but [`totals`] accumulate whenever counting is on.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
#[inline]
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Enables counting if the `MDG_COUNT_ALLOC` environment variable is set
/// to anything but `0`/empty/`false`; returns whether counting is now on.
pub fn counting_from_env() -> bool {
    if let Ok(v) = std::env::var("MDG_COUNT_ALLOC") {
        if !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")) {
            set_counting(true);
        }
    }
    counting()
}

/// Snapshot of the process-wide allocation tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Number of allocations (allocs + reallocs) since counting began.
    pub count: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed while counting).
    pub current: u64,
    /// High-water mark of `current`.
    pub peak: u64,
}

impl AllocTotals {
    /// Field-wise delta since `base` (`count`/`bytes` subtract and
    /// saturate; `current`/`peak` pass through — they are levels, not
    /// monotone counters).
    pub fn since(&self, base: &AllocTotals) -> AllocTotals {
        AllocTotals {
            count: self.count.saturating_sub(base.count),
            bytes: self.bytes.saturating_sub(base.bytes),
            current: self.current,
            peak: self.peak,
        }
    }
}

/// Current process-wide tallies (zeros until [`set_counting`] turns
/// counting on).
pub fn totals() -> AllocTotals {
    AllocTotals {
        count: TOTAL_COUNT.load(Ordering::Relaxed),
        bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        current: LIVE_BYTES.load(Ordering::Relaxed),
        peak: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// This thread's tallies at a point in time, captured by spans at open.
#[derive(Clone, Copy)]
pub(crate) struct ThreadMark {
    pub(crate) count: u64,
    pub(crate) bytes: u64,
    /// The thread peak at open, restored (maxed with the window peak) at
    /// close so an enclosing span still sees the true high-water mark.
    pub(crate) saved_peak: u64,
}

/// Marks the current thread's tallies and resets its peak to the current
/// live level, so the window that follows measures its own high water.
/// Returns `None` when counting is off (the span then skips alloc work).
pub(crate) fn mark() -> Option<ThreadMark> {
    if !counting() {
        return None;
    }
    TALLY
        .try_with(|t| {
            let saved_peak = t.peak.get();
            t.peak.set(t.current.get());
            ThreadMark {
                count: t.count.get(),
                bytes: t.bytes.get(),
                saved_peak,
            }
        })
        .ok()
}

/// Window deltas attributed to a closing span.
#[derive(Clone, Copy, Default)]
pub(crate) struct WindowDelta {
    pub(crate) count: u64,
    pub(crate) bytes: u64,
    pub(crate) peak: u64,
}

/// Closes a window opened by [`mark`]: computes the deltas and restores
/// the thread peak so enclosing windows stay correct.
pub(crate) fn window(m: ThreadMark) -> WindowDelta {
    TALLY
        .try_with(|t| {
            let window_peak = t.peak.get();
            t.peak.set(m.saved_peak.max(window_peak));
            WindowDelta {
                count: t.count.get().saturating_sub(m.count),
                bytes: t.bytes.get().saturating_sub(m.bytes),
                peak: window_peak,
            }
        })
        .unwrap_or_default()
}

#[inline]
fn record_alloc(size: u64) {
    // Per-thread cells first (never allocates), then the process mirrors.
    let _ = TALLY.try_with(|t| {
        t.count.set(t.count.get() + 1);
        t.bytes.set(t.bytes.get() + size);
        let cur = t.current.get() + size;
        t.current.set(cur);
        if cur > t.peak.get() {
            t.peak.set(cur);
        }
    });
    TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    // Lossy peak update: a stale read can miss a concurrent maximum by a
    // few bytes, which is fine for a profiling high-water mark and keeps
    // the hot path to two relaxed RMWs.
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn record_dealloc(size: u64) {
    let _ = TALLY.try_with(|t| {
        t.current.set(t.current.get().saturating_sub(size));
    });
    // Saturating via fetch_update would be an RMW loop; a plain sub is
    // fine because frees of pre-counting allocations can only make the
    // (unsigned) level wrap when more is freed than was ever counted —
    // guard with a min against the running total instead.
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(size))
    });
}

/// The counting allocator installed as the workspace's
/// `#[global_allocator]` (declared in the crate root so every binary
/// that links `mdg-obs` gets it). Pure pass-through to [`System`] until
/// [`set_counting`] flips it on.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// around the forwarding never allocates (const-init TLS cells + relaxed
// atomics), so there is no recursion and no change to allocation
// behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if counting() && !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if counting() && !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if counting() {
            record_dealloc(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if counting() && !p.is_null() {
            // A realloc counts as one allocation of the new size and a
            // free of the old one (matches what grow-in-loop costs).
            record_alloc(new_size as u64);
            record_dealloc(layout.size() as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Counting state is process-global; every test that flips it holds
    /// this lock.
    fn serialized() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_counting<R>(f: impl FnOnce() -> R) -> R {
        let _g = serialized();
        set_counting(true);
        let r = f();
        set_counting(false);
        r
    }

    #[test]
    fn counting_is_off_by_default_costs_nothing() {
        let _g = serialized();
        set_counting(false);
        assert!(!counting());
    }

    #[test]
    fn totals_grow_with_allocations() {
        with_counting(|| {
            let before = totals();
            let v: Vec<u64> = Vec::with_capacity(1024);
            let after = totals();
            drop(v);
            let d = after.since(&before);
            assert!(d.count >= 1, "allocation not counted");
            assert!(d.bytes >= 8 * 1024, "bytes under-counted: {}", d.bytes);
            assert!(after.peak >= after.current);
        });
    }

    #[test]
    fn window_attributes_thread_local_traffic() {
        with_counting(|| {
            let m = mark().expect("counting is on");
            let v: Vec<u8> = Vec::with_capacity(4096);
            let d = window(m);
            assert!(d.count >= 1);
            assert!(d.bytes >= 4096);
            assert!(d.peak >= 4096);
            drop(v);
        });
    }

    #[test]
    fn nested_windows_restore_the_outer_peak() {
        with_counting(|| {
            let outer = mark().expect("counting is on");
            let big: Vec<u8> = Vec::with_capacity(1 << 16);
            drop(big);
            let inner = mark().expect("counting is on");
            let small: Vec<u8> = Vec::with_capacity(16);
            let di = window(inner);
            drop(small);
            let d = window(outer);
            assert!(di.peak < d.peak, "inner window saw the outer high-water");
            assert!(d.peak >= 1 << 16);
        });
    }

    #[test]
    fn env_gate_parses_common_forms() {
        // Only exercises the parser logic indirectly: unset/0/false must
        // not enable. (Set-forms are covered by the CLI test, which owns
        // its process environment.)
        let _g = serialized();
        set_counting(false);
        std::env::remove_var("MDG_COUNT_ALLOC");
        assert!(!counting_from_env());
        std::env::set_var("MDG_COUNT_ALLOC", "0");
        assert!(!counting_from_env());
        std::env::set_var("MDG_COUNT_ALLOC", "false");
        assert!(!counting_from_env());
        std::env::remove_var("MDG_COUNT_ALLOC");
    }
}
