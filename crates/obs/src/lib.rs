//! `mdg-obs` — zero-dependency observability for the mobile-collectors workspace.
//!
//! The paper's claims are quantitative (tour length, energy uniformity,
//! gathering latency), so the planner and runtime need first-class
//! instrumentation rather than ad-hoc stderr lines. This crate provides it
//! using only `std`:
//!
//! * **Hierarchical phase spans** — [`span()`] / [`span!`] record wall time,
//!   invocation counts, and items processed, keyed by a `/`-separated path
//!   built from the thread-local span stack (`plan` → `plan/cover` →
//!   `plan/cover/lazy_greedy`).
//! * **Counters** — [`counter`] returns a cheap atomic handle that parallel
//!   workers may bump without coordination (relaxed ordering).
//! * **Log2 histograms** — [`histogram`] buckets `u64` samples by power of
//!   two, so distributions (repair ops per round, retries per round) cost one
//!   atomic increment per sample.
//! * **Two exporters** — [`Profile::render_tree`] for a human-readable
//!   summary on stderr and [`Profile::to_jsonl`] for machine-readable JSONL
//!   next to the runtime trace format in `mdg-runtime`.
//!
//! # Determinism contract
//!
//! Instrumentation must never perturb planning results: the workspace-level
//! `obs_equivalence` test asserts plans are **bit-identical** with profiling
//! on and off, at 1 and 4 threads. To keep that invariant trivially true, the
//! API only *observes*: nothing in this crate feeds back into algorithm
//! state, and all recording is gated behind a process-global flag
//! ([`set_enabled`]) that defaults to **off**. When disabled, a span is one
//! relaxed atomic load and a counter add is one relaxed load — within noise
//! on the scale benches.
//!
//! # Threading model
//!
//! Spans use a thread-local path stack. `mdg-par` runs every task of a
//! parallel job under the path of the thread that submitted it (one
//! [`current_path`] copy per job, taken only while recording is on, and
//! installed on each worker with [`with_path`]), so a span opened inside a
//! task nests where the parallel call sits: the tiles of a hierarchical
//! plan record as `hier/tiles/tile` on every thread. A span under a
//! parallel region therefore **sums wall time across threads**: at two
//! threads `hier/tiles/tile` can read up to twice its parent `hier/tiles`,
//! and its share of the root is busy time, not elapsed time. Threads that
//! `mdg-par` did not start still begin at an empty path. Hot inner loops
//! should bump [`Counter`]s / [`Histogram`]s, which are shared atomics, or
//! accumulate locally and flush once after the parallel region (preferred:
//! zero contention).
//!
//! # Example
//!
//! ```
//! mdg_obs::set_enabled(true);
//! {
//!     let mut sp = mdg_obs::span("plan");
//!     sp.add_items(100);
//!     let _inner = mdg_obs::span("cover");
//!     mdg_obs::counter("plan/cover/reevals").add(42);
//! }
//! let profile = mdg_obs::snapshot();
//! assert_eq!(profile.spans[0].path, "plan");
//! assert_eq!(profile.spans[1].path, "plan/cover");
//! eprint!("{}", profile.render_tree());
//! mdg_obs::set_enabled(false);
//! mdg_obs::reset();
//! ```

pub mod alloc;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The workspace's global allocator: a pass-through to the system
/// allocator until [`alloc::set_counting`] turns tallying on. Declared
/// here so every binary linking `mdg-obs` (the whole workspace) can
/// measure its heap traffic without per-binary boilerplate.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Number of log2 histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable recording. Disabled by default; flipping this
/// does not clear previously recorded data (see [`reset`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Default)]
struct SpanStat {
    calls: u64,
    wall_nanos: u64,
    items: u64,
    alloc_count: u64,
    alloc_bytes: u64,
    alloc_peak: u64,
}

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
}

struct Registry {
    spans: Mutex<BTreeMap<String, SpanStat>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<HistInner>>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        spans: Mutex::new(BTreeMap::new()),
        counters: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    /// Current `/`-joined span path for this thread.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

struct ActiveSpan {
    path: String,
    prev_len: usize,
    start: Instant,
    items: u64,
    /// Thread allocation tallies at open — `Some` only while the counting
    /// allocator is active, so spans stay one atomic load otherwise.
    alloc_mark: Option<alloc::ThreadMark>,
}

/// RAII guard for a phase span. Created by [`span()`]; on drop it accumulates
/// wall time, one call, and any [`Span::add_items`] total under its path.
/// Inert (a no-op) when recording is disabled.
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// Attribute `n` processed items (sensors, candidates, moves…) to this
    /// span. No-op when the span is inert.
    pub fn add_items(&mut self, n: u64) {
        if let Some(a) = &mut self.inner {
            a.items += n;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.inner.take() {
            let elapsed = a.start.elapsed().as_nanos() as u64;
            let alloc_delta = a.alloc_mark.map(alloc::window);
            PATH.with(|p| p.borrow_mut().truncate(a.prev_len));
            let mut spans = registry().spans.lock().unwrap();
            let st = spans.entry(a.path).or_default();
            st.calls += 1;
            st.wall_nanos += elapsed;
            st.items += a.items;
            if let Some(d) = alloc_delta {
                st.alloc_count += d.count;
                st.alloc_bytes += d.bytes;
                st.alloc_peak = st.alloc_peak.max(d.peak);
            }
        }
    }
}

/// Open a span named `name` nested under the current thread's span path.
/// `name` may itself contain `/` to introduce explicit sub-paths
/// (`span("plan/cover")` at the root is equivalent to nesting two spans).
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let (path, prev_len) = PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev_len = p.len();
        if !p.is_empty() {
            p.push('/');
        }
        p.push_str(name);
        (p.clone(), prev_len)
    });
    Span {
        inner: Some(ActiveSpan {
            path,
            prev_len,
            start: Instant::now(),
            items: 0,
            alloc_mark: alloc::mark(),
        }),
    }
}

/// A copy of the calling thread's span path while recording is on, `None`
/// while it is off. Hand it to [`with_path`] on another thread to nest that
/// thread's spans under this one's.
pub fn current_path() -> Option<String> {
    enabled().then(|| PATH.with(|p| p.borrow().clone()))
}

/// Runs `f` with the calling thread's span path set to `path`, so spans
/// opened inside nest under it, then restores the previous path (also when
/// `f` unwinds).
pub fn with_path<R>(path: &str, f: impl FnOnce() -> R) -> R {
    struct Restore(String);
    impl Drop for Restore {
        fn drop(&mut self) {
            PATH.with(|p| std::mem::swap(&mut *p.borrow_mut(), &mut self.0));
        }
    }
    let _restore = Restore(PATH.with(|p| p.replace(path.to_owned())));
    f()
}

/// Convenience macro form of [`span()`]: `let _sp = span!("plan/cover");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Shared atomic counter handle returned by [`counter`]. Cloning is cheap;
/// clones refer to the same underlying value.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` (relaxed; no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Get or create the counter registered under `path`. Takes a registry lock:
/// call once outside hot loops and reuse the handle (or accumulate locally
/// and `add` once per phase).
pub fn counter(path: &str) -> Counter {
    let mut counters = registry().counters.lock().unwrap();
    let arc = counters
        .entry(path.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Counter(Arc::clone(arc))
}

/// Shared log2-bucket histogram handle returned by [`histogram`].
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Record one sample (relaxed; no-op while recording is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Get or create the histogram registered under `path`. Same locking caveat
/// as [`counter`].
pub fn histogram(path: &str) -> Histogram {
    let mut hists = registry().hists.lock().unwrap();
    let arc = hists.entry(path.to_string()).or_insert_with(|| {
        Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    });
    Histogram(Arc::clone(arc))
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`, so bucket
/// `i >= 1` covers `[2^(i-1), 2^i)`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range of histogram bucket `i`.
pub fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// Snapshot of one span path's accumulated stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// `/`-joined hierarchical path, e.g. `plan/cover/lazy_greedy`.
    pub path: String,
    /// Number of times a span with this path was closed.
    pub calls: u64,
    /// Total wall time across all calls, in nanoseconds.
    pub wall_nanos: u64,
    /// Total items attributed via [`Span::add_items`].
    pub items: u64,
    /// Heap allocations performed on the span's thread inside its window
    /// (zero unless the counting allocator was active — see
    /// [`alloc::set_counting`]).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// High-water mark of the span thread's live bytes inside the window.
    pub alloc_peak: u64,
}

/// Snapshot of one histogram: total sample count plus sparse
/// `(bucket_index, count)` pairs for the non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistRecord {
    /// Registration path.
    pub path: String,
    /// Total number of recorded samples.
    pub count: u64,
    /// Non-empty buckets as `(bucket_index, count)`, index ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// Immutable snapshot of all recorded data, produced by [`snapshot`].
/// Span/counter/histogram entries are sorted by path; counters and
/// histograms that never recorded anything are omitted.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// All span stats, sorted by path (lexicographic == preorder DFS).
    pub spans: Vec<SpanRecord>,
    /// `(path, value)` for every counter with a non-zero value.
    pub counters: Vec<(String, u64)>,
    /// Every histogram with at least one sample.
    pub hists: Vec<HistRecord>,
}

/// Take a consistent snapshot of everything recorded so far.
pub fn snapshot() -> Profile {
    let reg = registry();
    let spans = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(path, st)| SpanRecord {
            path: path.clone(),
            calls: st.calls,
            wall_nanos: st.wall_nanos,
            items: st.items,
            alloc_count: st.alloc_count,
            alloc_bytes: st.alloc_bytes,
            alloc_peak: st.alloc_peak,
        })
        .collect();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(path, c)| {
            let v = c.load(Ordering::Relaxed);
            (v != 0).then(|| (path.clone(), v))
        })
        .collect();
    let hists = reg
        .hists
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(path, h)| {
            let mut buckets = Vec::new();
            let mut count = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n != 0 {
                    buckets.push((i as u32, n));
                    count += n;
                }
            }
            (count != 0).then(|| HistRecord {
                path: path.clone(),
                count,
                buckets,
            })
        })
        .collect();
    Profile {
        spans,
        counters,
        hists,
    }
}

/// Clear all recorded spans and zero every counter and histogram in place
/// (existing [`Counter`] / [`Histogram`] handles stay valid).
pub fn reset() {
    let reg = registry();
    reg.spans.lock().unwrap().clear();
    for c in reg.counters.lock().unwrap().values() {
        c.store(0, Ordering::Relaxed);
    }
    for h in reg.hists.lock().unwrap().values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Profile {
    /// The delta recorded between `baseline` and `self` (two [`snapshot`]s
    /// of the same registry, `baseline` taken first): per-path subtraction
    /// of span stats, counter values, and histogram buckets.
    ///
    /// The registry only ever accumulates, so entries new in `self` pass
    /// through unchanged and subtraction cannot underflow in correct use;
    /// mismatched snapshots (a [`reset`] between them, or swapped argument
    /// order) saturate to zero instead of panicking. Paths whose delta is
    /// entirely zero are dropped, so diffing two identical snapshots yields
    /// an empty profile. This is what lets a server report per-window
    /// metrics without resetting the global registry under concurrent
    /// recorders.
    pub fn diff(&self, baseline: &Profile) -> Profile {
        let base_spans: BTreeMap<&str, &SpanRecord> = baseline
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s))
            .collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let d = match base_spans.get(s.path.as_str()) {
                    Some(b) => SpanRecord {
                        path: s.path.clone(),
                        calls: s.calls.saturating_sub(b.calls),
                        wall_nanos: s.wall_nanos.saturating_sub(b.wall_nanos),
                        items: s.items.saturating_sub(b.items),
                        alloc_count: s.alloc_count.saturating_sub(b.alloc_count),
                        alloc_bytes: s.alloc_bytes.saturating_sub(b.alloc_bytes),
                        // A high-water mark is a level, not a monotone
                        // counter: the window's true peak is unknowable
                        // from two cumulative snapshots, so pass the
                        // later (covering) value through.
                        alloc_peak: s.alloc_peak,
                    },
                    None => s.clone(),
                };
                (d.calls != 0 || d.wall_nanos != 0 || d.items != 0 || d.alloc_count != 0)
                    .then_some(d)
            })
            .collect();
        let base_counters: BTreeMap<&str, u64> = baseline
            .counters
            .iter()
            .map(|(p, v)| (p.as_str(), *v))
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|(p, v)| {
                let d = v.saturating_sub(base_counters.get(p.as_str()).copied().unwrap_or(0));
                (d != 0).then(|| (p.clone(), d))
            })
            .collect();
        let base_hists: BTreeMap<&str, &HistRecord> = baseline
            .hists
            .iter()
            .map(|h| (h.path.as_str(), h))
            .collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|h| {
                let base: BTreeMap<u32, u64> = match base_hists.get(h.path.as_str()) {
                    Some(b) => b.buckets.iter().copied().collect(),
                    None => BTreeMap::new(),
                };
                let buckets: Vec<(u32, u64)> = h
                    .buckets
                    .iter()
                    .filter_map(|&(i, n)| {
                        let d = n.saturating_sub(base.get(&i).copied().unwrap_or(0));
                        (d != 0).then_some((i, d))
                    })
                    .collect();
                let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
                (count != 0).then(|| HistRecord {
                    path: h.path.clone(),
                    count,
                    buckets,
                })
            })
            .collect();
        Profile {
            spans,
            counters,
            hists,
        }
    }

    /// Whether the profile contains no spans, counters, or histograms.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Render the human-readable summary: an indented span tree (wall time,
    /// calls, items, percent of its root phase) followed by counters and
    /// histograms. Intended for stderr via `mdg … --profile`.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty() {
            out.push_str("profile: no data recorded\n");
            return out;
        }
        if !self.spans.is_empty() {
            // Total of root (depth-0) spans, used for the percent column.
            let root_total: u64 = self
                .spans
                .iter()
                .filter(|s| !s.path.contains('/'))
                .map(|s| s.wall_nanos)
                .sum();
            // Allocation columns appear only when the counting allocator
            // recorded something, so the tree is unchanged otherwise.
            let with_alloc = self.spans.iter().any(|s| s.alloc_count > 0);
            let name_w = self
                .spans
                .iter()
                .flat_map(|s| s.path.split('/').enumerate())
                .map(|(depth, name)| 2 * depth + name.len())
                .max()
                .unwrap_or(0)
                .max(12);
            let _ = write!(
                out,
                "{:name_w$}  {:>10}  {:>8}  {:>6}  {:>12}",
                "phase", "wall ms", "calls", "%root", "items"
            );
            if with_alloc {
                let _ = write!(
                    out,
                    "  {:>10}  {:>10}  {:>10}",
                    "allocs", "alloc MiB", "peak MiB"
                );
            }
            out.push('\n');
            // The path of the row printed last, split into its levels.
            let mut above: Vec<&str> = Vec::new();
            for s in &self.spans {
                let levels: Vec<&str> = s.path.split('/').collect();
                let depth = levels.len() - 1;
                // A level with no span of its own (`udg` of `network/udg/count`)
                // gets a name-only row, so every row sits under its parent.
                let shared = above
                    .iter()
                    .zip(&levels)
                    .take_while(|(a, b)| a == b)
                    .count();
                for k in shared..depth {
                    let level = levels[..=k].join("/");
                    if self
                        .spans
                        .binary_search_by(|t| t.path.as_str().cmp(&level))
                        .is_ok()
                    {
                        continue;
                    }
                    let _ = write!(
                        out,
                        "{:name_w$}  {:>10}  {:>8}  {:>6}  {:>12}",
                        format!("{}{}", "  ".repeat(k), levels[k]),
                        "-",
                        "-",
                        "-",
                        "-"
                    );
                    if with_alloc {
                        let _ = write!(out, "  {:>10}  {:>10}  {:>10}", "-", "-", "-");
                    }
                    out.push('\n');
                }
                let name = levels[depth];
                let indent = "  ".repeat(depth);
                let ms = s.wall_nanos as f64 / 1e6;
                let pct = if root_total > 0 {
                    100.0 * s.wall_nanos as f64 / root_total as f64
                } else {
                    0.0
                };
                let items = if s.items > 0 {
                    s.items.to_string()
                } else {
                    "-".to_string()
                };
                let _ = write!(
                    out,
                    "{:name_w$}  {:>10.2}  {:>8}  {:>5.1}%  {:>12}",
                    format!("{indent}{name}"),
                    ms,
                    s.calls,
                    pct,
                    items
                );
                if with_alloc {
                    let _ = write!(
                        out,
                        "  {:>10}  {:>10.2}  {:>10.2}",
                        s.alloc_count,
                        s.alloc_bytes as f64 / (1 << 20) as f64,
                        s.alloc_peak as f64 / (1 << 20) as f64
                    );
                }
                out.push('\n');
                above = levels;
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (path, v) in &self.counters {
                let _ = writeln!(out, "  {path} = {v}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms (log2 buckets):\n");
            for h in &self.hists {
                let _ = write!(out, "  {} n={}:", h.path, h.count);
                for &(i, n) in &h.buckets {
                    let (lo, hi) = bucket_range(i as usize);
                    if lo == hi {
                        let _ = write!(out, " [{lo}]={n}");
                    } else {
                        let _ = write!(out, " [{lo}..{hi}]={n}");
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Render machine-readable JSONL: one JSON object per line, with
    /// `"kind"` one of `"span"`, `"counter"`, `"hist"`:
    ///
    /// ```text
    /// {"kind":"span","path":"plan/cover","calls":1,"wall_nanos":123,"items":456}
    /// {"kind":"counter","path":"plan/cover/reevals","value":42}
    /// {"kind":"hist","path":"runtime/repair_ops","count":12,"buckets":[[0,3],[2,9]]}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"kind\":\"span\",\"path\":{},\"calls\":{},\"wall_nanos\":{},\"items\":{}",
                json_string(&s.path),
                s.calls,
                s.wall_nanos,
                s.items
            );
            // Allocation fields are additive and optional: emitted only
            // when the counting allocator attributed traffic to the span,
            // so existing consumers see byte-identical lines otherwise.
            if s.alloc_count > 0 || s.alloc_bytes > 0 || s.alloc_peak > 0 {
                let _ = write!(
                    out,
                    ",\"alloc_count\":{},\"alloc_bytes\":{},\"alloc_peak\":{}",
                    s.alloc_count, s.alloc_bytes, s.alloc_peak
                );
            }
            out.push_str("}\n");
        }
        for (path, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"path\":{},\"value\":{}}}",
                json_string(path),
                v
            );
        }
        for h in &self.hists {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(i, n)| format!("[{i},{n}]"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"hist\",\"path\":{},\"count\":{},\"buckets\":[{}]}}",
                json_string(&h.path),
                h.count,
                buckets.join(",")
            );
        }
        out
    }
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global state is shared across `#[test]` threads in one binary, so the
    /// obs tests serialize on this lock and reset around each body.
    fn with_clean_obs<R>(f: impl FnOnce() -> R) -> R {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn spans_nest_and_accumulate() {
        with_clean_obs(|| {
            {
                let mut a = span("plan");
                a.add_items(10);
                {
                    let _b = span!("cover");
                    let _c = span("lazy_greedy");
                }
                let _b2 = span("tour");
            }
            {
                let mut a = span("plan");
                a.add_items(5);
            }
            let p = snapshot();
            let paths: Vec<&str> = p.spans.iter().map(|s| s.path.as_str()).collect();
            assert_eq!(
                paths,
                ["plan", "plan/cover", "plan/cover/lazy_greedy", "plan/tour"]
            );
            let plan = &p.spans[0];
            assert_eq!(plan.calls, 2);
            assert_eq!(plan.items, 15);
            assert!(plan.wall_nanos >= p.spans[1].wall_nanos);
        });
    }

    #[test]
    fn spans_on_another_thread_nest_under_a_handed_over_path() {
        with_clean_obs(|| {
            let path = {
                let _s = span("hier");
                let _t = span("tiles");
                current_path().unwrap()
            };
            assert_eq!(path, "hier/tiles");
            std::thread::spawn(move || {
                with_path(&path, || drop(span("tile")));
                // The previous path comes back, also after an unwind.
                let unwound = std::panic::catch_unwind(|| {
                    with_path("elsewhere", || panic!("task failed"));
                });
                assert!(unwound.is_err());
                drop(span("own"));
            })
            .join()
            .unwrap();
            let p = snapshot();
            let paths: Vec<&str> = p.spans.iter().map(|s| s.path.as_str()).collect();
            assert_eq!(paths, ["hier", "hier/tiles", "hier/tiles/tile", "own"]);
            set_enabled(false);
            assert_eq!(current_path(), None);
        });
    }

    #[test]
    fn multi_segment_span_names() {
        with_clean_obs(|| {
            {
                let _s = span("plan/cover/lazy_greedy");
            }
            let p = snapshot();
            assert_eq!(p.spans.len(), 1);
            assert_eq!(p.spans[0].path, "plan/cover/lazy_greedy");
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_clean_obs(|| {
            set_enabled(false);
            let c = counter("noop");
            c.add(7);
            histogram("noop_h").record(3);
            {
                let _s = span("noop_span");
            }
            set_enabled(true);
            let p = snapshot();
            assert!(p.spans.is_empty());
            assert!(p.counters.is_empty());
            assert!(p.hists.is_empty());
        });
    }

    #[test]
    fn counters_and_hists_snapshot() {
        with_clean_obs(|| {
            let c = counter("x/hits");
            c.add(3);
            counter("x/hits").add(2); // same underlying counter
            counter("x/zero"); // never incremented -> omitted
            let h = histogram("x/sizes");
            h.record(0);
            h.record(1);
            h.record(5);
            h.record(5);
            let p = snapshot();
            assert_eq!(p.counters, vec![("x/hits".to_string(), 5)]);
            assert_eq!(p.hists.len(), 1);
            assert_eq!(p.hists[0].count, 4);
            assert_eq!(p.hists[0].buckets, vec![(0, 1), (1, 1), (3, 2)]);
        });
    }

    #[test]
    fn counters_from_worker_threads() {
        with_clean_obs(|| {
            let c = counter("threads/sum");
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = c.clone();
                    std::thread::spawn(move || {
                        for _ in 0..1000 {
                            c.add(1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.get(), 4000);
        });
    }

    #[test]
    fn exporters_cover_all_kinds() {
        with_clean_obs(|| {
            {
                let _s = span("root");
                let _t = span("child");
            }
            counter("root/count").add(9);
            histogram("root/hist").record(100);
            let p = snapshot();
            let tree = p.render_tree();
            assert!(tree.contains("root"));
            assert!(tree.contains("child"));
            assert!(tree.contains("root/count = 9"));
            assert!(tree.contains("n=1"));
            let jsonl = p.to_jsonl();
            let lines: Vec<&str> = jsonl.lines().collect();
            assert_eq!(lines.len(), 4);
            assert!(lines[0].starts_with("{\"kind\":\"span\",\"path\":\"root\""));
            assert!(lines
                .iter()
                .any(|l| l.contains("\"kind\":\"counter\"") && l.contains("\"value\":9")));
            assert!(lines
                .iter()
                .any(|l| l.contains("\"kind\":\"hist\"") && l.contains("\"buckets\":[[7,1]]")));
        });
    }

    #[test]
    fn render_tree_prints_levels_without_a_span_of_their_own() {
        with_clean_obs(|| {
            {
                let _s = span("network");
                drop(span("udg/count"));
                drop(span("udg/fill"));
            }
            drop(span("delta/rebuild"));
            let tree = snapshot().render_tree();
            let rows: Vec<(usize, Vec<&str>)> = tree
                .lines()
                .skip(1)
                .map(|l| {
                    (
                        l.len() - l.trim_start().len(),
                        l.split_whitespace().collect(),
                    )
                })
                .collect();
            let names: Vec<(usize, &str)> = rows.iter().map(|(i, r)| (*i, r[0])).collect();
            assert_eq!(
                names,
                [
                    (0, "delta"),
                    (2, "rebuild"),
                    (0, "network"),
                    (2, "udg"),
                    (4, "count"),
                    (4, "fill"),
                ],
                "{tree}"
            );
            // Name-only rows carry `-` in every number column; span rows
            // carry numbers.
            for (_, row) in rows
                .iter()
                .filter(|(_, r)| ["delta", "udg"].contains(&r[0]))
            {
                assert_eq!(row[1..], ["-"; 4], "{tree}");
            }
            assert!(rows[2].1[2] == "1", "{tree}");
            // The JSONL keeps the recorded paths alone.
            let jsonl = snapshot().to_jsonl();
            assert_eq!(jsonl.lines().count(), 4);
            assert!(!jsonl.contains("\"path\":\"network/udg\","));
        });
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn diff_subtracts_span_stats_per_path() {
        let earlier = Profile {
            spans: vec![SpanRecord {
                path: "serve/plan".into(),
                calls: 2,
                wall_nanos: 100,
                items: 10,
                ..SpanRecord::default()
            }],
            ..Profile::default()
        };
        let later = Profile {
            spans: vec![
                SpanRecord {
                    path: "serve/delta".into(),
                    calls: 1,
                    wall_nanos: 7,
                    items: 0,
                    ..SpanRecord::default()
                },
                SpanRecord {
                    path: "serve/plan".into(),
                    calls: 5,
                    wall_nanos: 260,
                    items: 31,
                    ..SpanRecord::default()
                },
            ],
            ..Profile::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.spans.len(), 2);
        // New-in-later path passes through unchanged.
        assert_eq!(d.spans[0].path, "serve/delta");
        assert_eq!((d.spans[0].calls, d.spans[0].wall_nanos), (1, 7));
        // Shared path subtracts field-wise.
        assert_eq!(d.spans[1].path, "serve/plan");
        assert_eq!(d.spans[1].calls, 3);
        assert_eq!(d.spans[1].wall_nanos, 160);
        assert_eq!(d.spans[1].items, 21);
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty() {
        with_clean_obs(|| {
            {
                let _s = span("serve");
            }
            counter("serve/requests").add(3);
            histogram("serve/latency").record(9);
            let a = snapshot();
            let b = snapshot();
            assert!(!a.is_empty());
            assert!(b.diff(&a).is_empty());
        });
    }

    #[test]
    fn diff_drops_unchanged_counters_and_keeps_deltas() {
        let earlier = Profile {
            counters: vec![("a".into(), 4), ("b".into(), 9)],
            ..Profile::default()
        };
        let later = Profile {
            counters: vec![("a".into(), 4), ("b".into(), 12), ("c".into(), 1)],
            ..Profile::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.counters, vec![("b".into(), 3), ("c".into(), 1)]);
    }

    #[test]
    fn diff_subtracts_histogram_buckets() {
        let earlier = Profile {
            hists: vec![HistRecord {
                path: "h".into(),
                count: 3,
                buckets: vec![(0, 1), (3, 2)],
            }],
            ..Profile::default()
        };
        let later = Profile {
            hists: vec![HistRecord {
                path: "h".into(),
                count: 7,
                buckets: vec![(0, 1), (3, 4), (5, 2)],
            }],
            ..Profile::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.hists[0].count, 4);
        assert_eq!(d.hists[0].buckets, vec![(3, 2), (5, 2)]);
    }

    #[test]
    fn diff_saturates_on_mismatched_snapshots() {
        // A reset between snapshots (or swapped arguments) makes the
        // "later" values smaller; the diff clamps at zero, never panics.
        let bigger = Profile {
            spans: vec![SpanRecord {
                path: "p".into(),
                calls: 9,
                wall_nanos: 900,
                items: 9,
                ..SpanRecord::default()
            }],
            counters: vec![("c".into(), 9)],
            hists: vec![HistRecord {
                path: "h".into(),
                count: 9,
                buckets: vec![(1, 9)],
            }],
        };
        let smaller = Profile {
            spans: vec![SpanRecord {
                path: "p".into(),
                calls: 1,
                wall_nanos: 100,
                items: 1,
                ..SpanRecord::default()
            }],
            counters: vec![("c".into(), 2)],
            hists: vec![HistRecord {
                path: "h".into(),
                count: 2,
                buckets: vec![(1, 2)],
            }],
        };
        let d = smaller.diff(&bigger);
        assert!(d.is_empty());
    }

    #[test]
    fn diff_windows_compose_to_the_whole() {
        with_clean_obs(|| {
            let c = counter("w/reqs");
            c.add(2);
            let t0 = snapshot();
            c.add(5);
            let t1 = snapshot();
            c.add(1);
            let t2 = snapshot();
            let w1 = t1.diff(&t0);
            let w2 = t2.diff(&t1);
            assert_eq!(w1.counters, vec![("w/reqs".into(), 5)]);
            assert_eq!(w2.counters, vec![("w/reqs".into(), 1)]);
            // Window deltas sum to the full-range delta.
            let full = t2.diff(&t0);
            assert_eq!(full.counters[0].1, w1.counters[0].1 + w2.counters[0].1);
        });
    }

    #[test]
    fn reset_clears_everything() {
        with_clean_obs(|| {
            {
                let _s = span("gone");
            }
            let c = counter("gone/count");
            c.add(1);
            reset();
            let p = snapshot();
            assert!(p.spans.is_empty());
            assert!(p.counters.is_empty());
            // Handle from before the reset still works.
            c.add(2);
            assert_eq!(c.get(), 2);
        });
    }
}
