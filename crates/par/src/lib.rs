//! # mdg-par — deterministic data parallelism on std threads
//!
//! The planner's hot loops (gain seeding, unit-disk graph rows,
//! k-NN list construction, per-tile planning) are embarrassingly
//! parallel *computations* feeding strictly sequential *decisions*. This
//! crate supplies the computation side: a persistent worker pool (no
//! crates.io dependencies — workers are plain `std::thread`s parked on a
//! condvar) behind order-preserving primitives whose results are
//! **bit-identical at any thread count**:
//!
//! * [`par_map`] — `f(i)` for `i in 0..n`, results in index order. Output
//!   is element-wise, so scheduling and chunking cannot affect it.
//! * [`par_chunks`] / [`par_chunks_mut`] — fixed-size blocks of an index
//!   range (or slice). Block boundaries are computed from `n` and `chunk`
//!   only — never from the thread count — so even order-sensitive
//!   per-block results (e.g. float accumulations) are reproducible.
//!
//! A hand-off to the pool costs microseconds, so callers keep scans that
//! finish in less than that inline (the dense 2-opt/Or-opt candidate
//! scans, for one, never enter the pool).
//!
//! ## Thread-count control
//!
//! Effective parallelism is: programmatic override ([`set_threads`],
//! `0` = auto) → `MDG_THREADS` environment variable (`0`/unset/unparsable
//! = auto) → [`std::thread::available_parallelism`]. The automatic count
//! (environment, then hardware) is resolved **once per process**, on the
//! first parallel call: querying the hardware reads cgroup files, and the
//! primitives are called hundreds of thousands of times per large plan.
//! The override is an atomic, so [`set_threads`] takes effect at once.
//! One thread means every primitive degrades to the plain sequential loop.
//!
//! ## Nesting and reentrancy
//!
//! One job runs at a time. A parallel call issued from inside another
//! parallel region (a worker task, or a second thread while the pool is
//! busy) silently runs sequentially inline — correct by the determinism
//! contract, and free of lock-ordering hazards. This is exactly what the
//! bench runner needs: it fans replicates out across the pool while each
//! replicate's planner calls collapse to their sequential fallbacks. The
//! nested check is a thread-local flag, so a collapsed call costs about
//! as much as the loop it runs.
//!
//! ## Profiling
//!
//! While `mdg-obs` recording is on, a job carries one copy of the
//! submitting thread's span path and workers run its tasks under it, so
//! a span opened inside a task nests where the parallel call sits, at any
//! thread count. With recording off nothing is copied.
//!
//! ## Panics
//!
//! A panic inside a task is caught, the job is run to completion (other
//! tasks still execute), and the panic is re-raised on the calling thread
//! once all borrowed data is provably no longer referenced by any worker.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard ceiling on the effective thread count (and the pool size); guards
/// against absurd `MDG_THREADS` values.
pub const MAX_THREADS: usize = 128;

/// Programmatic thread-count override; `0` means "not set" (defer to the
/// environment / hardware).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the global thread count for all subsequent parallel calls in this
/// process. `0` restores automatic selection (`MDG_THREADS`, then hardware
/// parallelism). Values are clamped to `1..=`[`MAX_THREADS`].
///
/// Changing the count never changes any primitive's result — only how
/// many workers compute it.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// The effective thread count the next parallel call will use.
///
/// ```
/// mdg_par::set_threads(3);
/// assert_eq!(mdg_par::threads(), 3);
/// mdg_par::set_threads(0); // back to auto
/// assert!(mdg_par::threads() >= 1);
/// ```
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => auto_threads(),
        // `set_threads` already clamped it to MAX_THREADS.
        explicit => explicit,
    }
}

/// The automatic thread count: `MDG_THREADS` if it holds a positive
/// number, else the hardware parallelism, clamped to `1..=MAX_THREADS`.
/// Resolved on first use and fixed for the life of the process.
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("MDG_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
            .clamp(1, MAX_THREADS)
    })
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Per-job shared state. Workers claim task indices off `next`; the caller
/// waits for `done == n_tasks`, at which point every claimed task has
/// finished and no worker will dereference the job's data pointer again
/// (a stale claim attempt only observes `next >= n_tasks` and bails).
struct JobCounters {
    next: AtomicUsize,
    n_tasks: usize,
    panicked: AtomicBool,
    done: Mutex<usize>,
    done_cv: Condvar,
    /// The submitter's `mdg-obs` span path (`None` while recording is
    /// off): workers run the job's tasks under it.
    span_path: Option<String>,
}

/// A type-erased borrowed job: `call(data, i)` invokes the caller's task
/// closure for task `i`. `data` borrows the caller's stack frame; validity
/// is guaranteed by the completion protocol in [`JobCounters`].
#[derive(Clone)]
struct JobRef {
    call: unsafe fn(*const (), usize),
    data: *const (),
    ctr: Arc<JobCounters>,
}

// SAFETY: `data` always points at a closure that is `Sync` (enforced by
// the `F: Sync` bounds on every public entry point), shared by reference
// across workers; `call` is a plain fn pointer.
unsafe impl Send for JobRef {}

/// The broadcast slot workers watch. `epoch` increments per job so a
/// worker never runs the same job twice; `quota` bounds how many workers
/// join a job, enforcing the caller's requested thread count even when
/// the pool holds more (previously spawned) workers.
struct Slot {
    epoch: u64,
    job: Option<JobRef>,
    quota: usize,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Workers spawned so far (they are never joined; parked workers cost
    /// nothing and die with the process).
    spawned: Mutex<usize>,
}

thread_local! {
    /// True while this thread is executing tasks of some job — both on
    /// workers and on the submitting thread. Parallel calls made in that
    /// state run sequentially inline.
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// Serializes job submission; `try_lock` failure (another thread mid-job)
/// downgrades the caller to the sequential path instead of blocking.
static SUBMIT: Mutex<()> = Mutex::new(());

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                quota: 0,
            }),
            work_cv: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

/// Claims and runs tasks until the job's index counter is exhausted.
/// Panics inside a task are recorded and swallowed so the completion
/// protocol always terminates; the submitter re-raises them.
fn run_tasks(job: &JobRef) {
    let was_in_par = IN_PAR.with(|f| f.replace(true));
    loop {
        let i = job.ctr.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.ctr.n_tasks {
            break;
        }
        // SAFETY: `i < n_tasks` is claimed exactly once (fetch_add), and
        // the submitter keeps `data` alive until `done == n_tasks`, which
        // cannot happen before this task's increment below.
        if catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, i) })).is_err() {
            job.ctr.panicked.store(true, Ordering::Relaxed);
        }
        let mut done = job.ctr.done.lock().expect("job counter poisoned");
        *done += 1;
        if *done == job.ctr.n_tasks {
            job.ctr.done_cv.notify_all();
        }
    }
    IN_PAR.with(|f| f.set(was_in_par));
}

fn worker_main(shared: Arc<Shared>) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool slot poisoned");
            loop {
                if slot.epoch != last_epoch {
                    last_epoch = slot.epoch;
                    if slot.quota > 0 {
                        if let Some(job) = slot.job.clone() {
                            slot.quota -= 1;
                            break job;
                        }
                    }
                }
                slot = shared.work_cv.wait(slot).expect("pool slot poisoned");
            }
        };
        match &job.ctr.span_path {
            Some(path) => mdg_obs::with_path(path, || run_tasks(&job)),
            None => run_tasks(&job),
        }
    }
}

impl Pool {
    /// Ensures at least `target` workers exist (best effort: spawn
    /// failures degrade parallelism, never correctness — the submitter
    /// always participates, so jobs finish even with zero workers).
    fn ensure_workers(&self, target: usize) {
        let mut spawned = self.spawned.lock().expect("pool spawn count poisoned");
        while *spawned < target.min(MAX_THREADS - 1) {
            let shared = Arc::clone(&self.shared);
            let res = std::thread::Builder::new()
                .name(format!("mdg-par-{}", *spawned))
                .spawn(move || worker_main(shared));
            if res.is_err() {
                break;
            }
            *spawned += 1;
        }
    }

    /// Runs `n_tasks` invocations of `call(data, i)` across the pool plus
    /// the calling thread, returning once all have finished. Caller must
    /// hold the `SUBMIT` lock and have `n_tasks > 0`.
    fn run(
        &self,
        n_tasks: usize,
        helpers: usize,
        call: unsafe fn(*const (), usize),
        data: *const (),
    ) {
        let ctr = Arc::new(JobCounters {
            next: AtomicUsize::new(0),
            n_tasks,
            panicked: AtomicBool::new(false),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            span_path: mdg_obs::current_path(),
        });
        let job = JobRef {
            call,
            data,
            ctr: Arc::clone(&ctr),
        };
        {
            let mut slot = self.shared.slot.lock().expect("pool slot poisoned");
            slot.epoch += 1;
            slot.quota = helpers;
            slot.job = Some(job.clone());
        }
        self.shared.work_cv.notify_all();
        run_tasks(&job);
        // Wait until every claimed task has finished; only then may the
        // borrowed `data` go out of scope.
        {
            let mut done = ctr.done.lock().expect("job counter poisoned");
            while *done < n_tasks {
                done = ctr.done_cv.wait(done).expect("job counter poisoned");
            }
        }
        {
            let mut slot = self.shared.slot.lock().expect("pool slot poisoned");
            slot.job = None;
            slot.quota = 0;
        }
        if ctr.panicked.load(Ordering::Relaxed) {
            panic!("mdg-par: a parallel task panicked");
        }
    }
}

/// Type-erasure trampoline: recovers the concrete closure behind the job's
/// data pointer and runs task `i`.
///
/// # Safety
/// `data` must point at a live `F` shared for the duration of the job.
unsafe fn call_task<F: Fn(usize) + Sync>(data: *const (), i: usize) {
    // SAFETY: per contract, `data` is a valid `*const F` for the job's
    // lifetime, and `F: Sync` permits shared access from any thread.
    let f = unsafe { &*(data as *const F) };
    f(i);
}

/// Executes `task(i)` for every `i in 0..n_tasks`, in parallel when the
/// effective thread count allows it and the pool is free, sequentially
/// otherwise. The task must tolerate any execution order (all callers in
/// this crate write disjoint, index-addressed outputs).
fn execute<F: Fn(usize) + Sync>(n_tasks: usize, task: &F) {
    // The nested flag is read before the thread count: the per-tile calls
    // of a tiled plan are nested and must cost no more than their loop.
    if n_tasks <= 1 || IN_PAR.with(|f| f.get()) || threads() <= 1 {
        (0..n_tasks).for_each(task);
        return;
    }
    let t = threads();
    let _guard = match SUBMIT.try_lock() {
        Ok(guard) => guard,
        // A task panic unwinds through the submitter while it holds the
        // lock; the lock guards no data, so the pool stays usable.
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            // Another thread is mid-job; don't queue behind it (that thread
            // may itself be waiting on compute we'd block) — run inline.
            (0..n_tasks).for_each(task);
            return;
        }
    };
    let helpers = (t - 1).min(n_tasks - 1);
    let p = pool();
    p.ensure_workers(helpers);
    p.run(
        n_tasks,
        helpers,
        call_task::<F>,
        task as *const F as *const (),
    );
}

// ---------------------------------------------------------------------------
// Public primitives
// ---------------------------------------------------------------------------

/// A raw pointer to an output buffer, shared across tasks that write
/// disjoint slots.
struct OutPtr<T>(*mut T);
// SAFETY: tasks address disjoint slots (each index claimed exactly once),
// and the completion protocol orders all writes before the caller reads.
unsafe impl<T: Send> Sync for OutPtr<T> {}

impl<T> OutPtr<T> {
    /// Writes `v` into slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the underlying buffer and owned
    /// exclusively by the calling task.
    unsafe fn write(&self, i: usize, v: T) {
        unsafe { self.0.add(i).write(v) }
    }

    /// Reborrows `len` slots starting at `start` as a mutable slice.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every other task's
    /// range, and the underlying buffer must outlive the job.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// Splits `0..n` into blocks of `chunk` (last one possibly shorter).
/// Boundaries depend only on `n` and `chunk` — never on the thread count.
#[inline]
fn block(ci: usize, n: usize, chunk: usize) -> Range<usize> {
    let start = ci * chunk;
    start..((start + chunk).min(n))
}

#[inline]
fn n_blocks(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk)
}

/// Picks a block size for element-wise maps: enough blocks for load
/// balance, big enough to amortize claim overhead. Because [`par_map`]'s
/// output is element-wise, this MAY consult the thread count without
/// affecting results.
fn auto_chunk(n: usize) -> usize {
    (n.div_ceil(8 * threads())).max(1)
}

/// Applies `f` to every index in `0..n` and returns the results in index
/// order — a drop-in parallel `(0..n).map(f).collect()`.
///
/// ```
/// let squares = mdg_par::par_map(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` needs no initialization; length is restored to
    // a fully-written state before the transmute below.
    unsafe { out.set_len(n) };
    let chunk = auto_chunk(n);
    let ptr = OutPtr(out.as_mut_ptr());
    execute(n_blocks(n, chunk), &|ci| {
        for i in block(ci, n, chunk) {
            let v = f(i);
            // SAFETY: `i` lies in this task's private block; blocks are
            // disjoint, so no other task touches this slot.
            unsafe { ptr.write(i, std::mem::MaybeUninit::new(v)) };
        }
    });
    // SAFETY: `execute` ran every block, so all `n` slots are initialized
    // (a task panic would have propagated above and skipped this).
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut T, n, out.capacity())
    }
}

/// Applies `f` to fixed blocks of `0..n` (each of size `chunk`, last one
/// truncated) and returns the per-block results in block order. Block
/// boundaries are a pure function of `n` and `chunk`, so order-sensitive
/// per-block computations (float sums, first-hit scans) are reproducible
/// at any thread count.
///
/// # Panics
/// Panics if `chunk == 0`.
///
/// ```
/// // Block-wise sums: boundaries are [0..3), [3..6), [6..8).
/// let sums = mdg_par::par_chunks(8, 3, |r| r.sum::<usize>());
/// assert_eq!(sums, vec![3, 12, 13]);
/// ```
pub fn par_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let nb = n_blocks(n, chunk);
    let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(nb);
    // SAFETY: as in `par_map`.
    unsafe { out.set_len(nb) };
    let ptr = OutPtr(out.as_mut_ptr());
    execute(nb, &|ci| {
        let v = f(block(ci, n, chunk));
        // SAFETY: one writer per block index.
        unsafe { ptr.write(ci, std::mem::MaybeUninit::new(v)) };
    });
    // SAFETY: all `nb` slots written by `execute`.
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut R, nb, out.capacity())
    }
}

/// Hands out fixed disjoint sub-slices of `data` (each `chunk` elements,
/// last one truncated) to parallel tasks as `f(block_start, block)`.
/// The in-place analogue of [`par_chunks`] for cache-update loops.
///
/// # Panics
/// Panics if `chunk == 0`.
///
/// ```
/// let mut v = vec![0usize; 10];
/// mdg_par::par_chunks_mut(&mut v, 4, |start, block| {
///     for (k, x) in block.iter_mut().enumerate() {
///         *x = start + k;
///     }
/// });
/// assert_eq!(v, (0..10).collect::<Vec<_>>());
/// ```
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n = data.len();
    let ptr = OutPtr(data.as_mut_ptr());
    execute(n_blocks(n, chunk), &|ci| {
        let r = block(ci, n, chunk);
        // SAFETY: blocks are disjoint sub-ranges of `data`, one task per
        // block, and `data` outlives the job (execute blocks until done).
        let slice = unsafe { ptr.slice_mut(r.start, r.len()) };
        f(r.start, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that assert on the *value* of the global thread
    /// count (tests in one binary run concurrently). Tests that only rely
    /// on result-determinism don't need it.
    fn count_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` under each thread count and asserts all results match.
    fn same_at_all_thread_counts<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        let _guard = count_lock();
        let reference = {
            set_threads(1);
            f()
        };
        for t in [2, 3, 8] {
            set_threads(t);
            assert_eq!(f(), reference, "thread count {t} diverged");
        }
        set_threads(0);
    }

    /// Runs `task` in a two-task job whose tasks wait for each other, so
    /// the submitter runs one and a worker the other. The wait times out
    /// instead of hanging if the job runs inline. Returns, per task,
    /// whether it ran off the submitting thread.
    fn two_task_rendezvous(task: impl Fn() + Sync) -> Vec<bool> {
        let arrived = Mutex::new(0usize);
        let all_in = Condvar::new();
        let submitter = std::thread::current().id();
        par_map(2, |_| {
            let mut n = arrived.lock().expect("test mutex");
            *n += 1;
            all_in.notify_all();
            let wait = std::time::Duration::from_secs(30);
            drop(all_in.wait_timeout_while(n, wait, |n| *n < 2));
            task();
            std::thread::current().id() != submitter
        })
    }

    #[test]
    fn map_is_order_preserving() {
        same_at_all_thread_counts(|| par_map(1000, |i| i * 3));
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        // Float accumulation per block: only fixed boundaries keep this
        // bit-identical.
        same_at_all_thread_counts(|| {
            par_chunks(10_000, 97, |r| r.map(|i| (i as f64).sqrt()).sum::<f64>())
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u64>>()
        });
    }

    #[test]
    fn chunks_mut_writes_every_slot() {
        same_at_all_thread_counts(|| {
            let mut v = vec![0usize; 5000];
            par_chunks_mut(&mut v, 64, |start, block| {
                for (k, x) in block.iter_mut().enumerate() {
                    *x = (start + k) * 2;
                }
            });
            v
        });
    }

    #[test]
    fn nested_calls_fall_back_and_complete() {
        let _guard = count_lock();
        set_threads(4);
        let outer = par_map(16, |i| par_map(50, move |j| i * j).iter().sum::<usize>());
        set_threads(0);
        let want: Vec<usize> = (0..16).map(|i| i * (0..50).sum::<usize>()).collect();
        assert_eq!(outer, want);
    }

    #[test]
    fn pool_survives_many_jobs() {
        let _guard = count_lock();
        set_threads(4);
        for round in 0..500 {
            let v = par_map(37, |i| i + round);
            assert_eq!(v[36], 36 + round);
        }
        set_threads(0);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let _guard = count_lock();
        set_threads(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|k| {
                    scope.spawn(move || {
                        let v = par_map(2000, |i| i * k);
                        v.iter().sum::<usize>()
                    })
                })
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let want = (0..2000).map(|i| i * k).sum::<usize>();
                assert_eq!(h.join().unwrap(), want);
            }
        });
        set_threads(0);
    }

    #[test]
    fn panics_propagate_after_completion() {
        let _guard = count_lock();
        set_threads(4);
        let hit = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(100, |i| {
                hit.fetch_add(1, Ordering::Relaxed);
                if i == 31 {
                    panic!("boom");
                }
                i
            })
        }));
        set_threads(0);
        assert!(result.is_err(), "task panic must reach the caller");
        // The pool must remain usable afterwards, workers included.
        assert_eq!(par_map(10, |i| i)[9], 9);
        set_threads(2);
        let on_worker = two_task_rendezvous(|| ());
        set_threads(0);
        assert!(
            on_worker.contains(&true),
            "the pool ran no job after a panic"
        );
    }

    #[test]
    fn tasks_run_under_the_submitters_span_path() {
        let _guard = count_lock();
        set_threads(2);
        mdg_obs::reset();
        mdg_obs::set_enabled(true);
        let on_worker = {
            let _sp = mdg_obs::span("job");
            two_task_rendezvous(|| drop(mdg_obs::span("task")))
        };
        mdg_obs::set_enabled(false);
        let prof = mdg_obs::snapshot();
        mdg_obs::reset();
        set_threads(0);
        assert!(on_worker.contains(&true), "a worker ran a task");
        let paths: Vec<&str> = prof.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["job", "job/task"]);
        assert_eq!(prof.spans[1].calls, 2);
    }

    #[test]
    fn threads_clamps_and_overrides() {
        let _guard = count_lock();
        set_threads(MAX_THREADS + 50);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(2);
        assert_eq!(threads(), 2);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn non_send_free_types_move_correctly() {
        // Heap-owning results must land in the right slots without double
        // drops; run under the address of each element being distinct.
        same_at_all_thread_counts(|| par_map(300, |i| vec![i; i % 7]));
    }
}
