//! In-memory span tracing and allocation counting for the traced run.
//!
//! Spans are placed by the benchmark around its own calls into each
//! layer (nothing is traced inside the crates). Each thread records into
//! its own buffer; a span stores its name, start, end, parent and the
//! allocations its thread made while it was open. Nothing is written out
//! until the run ends, and with tracing off [`span`] is a plain call.
//!
//! A span's *self* time is its duration minus the time its child spans
//! cover; the same holds for allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.process_batch`.
    pub name: &'static str,
    /// Start, in ns since the recording thread's epoch.
    pub start_ns: u64,
    /// End, in ns since the recording thread's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Allocations made on this thread while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    paused: bool,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    // Read by the global allocator, so it must never allocate itself:
    // const-initialised and without a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Whether [`CountingAlloc`] counts; set once, for the traced run.
// ORDERING: Relaxed — a switch read on its own, publishing no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on (for the traced run) or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Counts every heap allocation made on the calling thread while
/// [`count_allocations`] is on. Installed as the benchmark binary's global
/// allocator.
pub struct CountingAlloc;

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far on the calling thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Starts recording on the calling thread (discarding anything recorded
/// before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            paused: false,
        })
    });
}

/// Pauses (or resumes) recording on the calling thread, keeping what was
/// recorded; while paused, [`span`] is a plain call. Lets a traced run
/// interleave untraced reference segments with traced ones.
pub fn set_paused(paused: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.paused = paused;
        }
    });
}

/// Stops recording on the calling thread and returns its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs recorder bookkeeping without counting its own allocations
/// (buffer growth) against the spans open around it.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = allocs();
    let out = f();
    let grown = allocs() - before;
    ALLOCS.with(|c| c.set(c.get() - grown));
    out
}

fn open(name: &'static str) -> Option<usize> {
    uncounted(|| {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().filter(|rec| !rec.paused)?;
            let idx = rec.spans.len();
            let parent = rec.open.last().copied();
            rec.open.push(idx);
            rec.spans.push(Span {
                name,
                start_ns: rec.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                allocs: 0,
            });
            Some(idx)
        })
    })
    .inspect(|&idx| {
        // Read the baseline last, after the bookkeeping above.
        let a = allocs();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].allocs = a;
            }
        });
    })
}

fn close(idx: usize) {
    let now_allocs = allocs();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end = rec.epoch.elapsed().as_nanos() as u64;
            let s = &mut rec.spans[idx];
            s.end_ns = end;
            s.allocs = now_allocs - s.allocs;
            rec.open.pop();
        }
    });
}

/// Runs `f` inside a span named `name` when the thread is recording.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    match open(name) {
        None => f(),
        Some(idx) => {
            let out = f();
            close(idx);
            out
        }
    }
}

/// Records a child of the innermost open span that covers `dur_ns`,
/// ending now. For work a layer times itself and reports (the
/// optimizer's search time), so it is subtracted from its caller's self
/// time like any other child.
pub fn reported_child(name: &'static str, dur_ns: u64) {
    uncounted(|| {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| !rec.paused) {
                let end = rec.epoch.elapsed().as_nanos() as u64;
                rec.spans.push(Span {
                    name,
                    start_ns: end.saturating_sub(dur_ns),
                    end_ns: end,
                    parent: rec.open.last().copied(),
                    allocs: 0,
                });
            }
        })
    });
}

/// Per-name aggregate over one thread's spans.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Sum of their self allocations.
    pub self_allocs: u64,
    /// Each span's duration, ns, in recording order.
    pub durs_ns: Vec<f64>,
}

/// Each span's self time (ns) and self allocations, index-aligned.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut child = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p].0 += s.dur_ns();
            child[p].1 += s.allocs;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, (ns, allocs))| {
            (
                s.dur_ns().saturating_sub(ns),
                s.allocs.saturating_sub(allocs),
            )
        })
        .collect()
}

/// Aggregates spans by name, with self time and self allocations.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, (self_ns, self_allocs)) in spans.iter().zip(self_costs(spans)) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += self_ns;
        a.self_allocs += self_allocs;
        a.durs_ns.push(s.dur_ns() as f64);
    }
    out
}

/// The crates a span name may be attributed to. `bench.*` spans are the
/// benchmark's own work (restoring inputs, checking outputs) and belong
/// to no layer.
pub const LAYERS: [&str; 7] = ["net", "sim", "runtime", "core", "cost", "verify", "ir"];

/// The layer a span name belongs to, if any.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next()?;
    LAYERS.iter().copied().find(|l| *l == prefix)
}

/// How much of a measured interval the layer spans explain.
#[derive(Debug, Clone)]
pub struct Coverage {
    /// Self time of layer spans over the interval's wall time minus the
    /// benchmark's own spans.
    pub frac: f64,
    /// Self time per layer, ns.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// The benchmark's own span time, ns (excluded from the base).
    pub bench_ns: u64,
    /// Wall time of the interval, ns.
    pub wall_ns: u64,
}

impl Coverage {
    /// Computes coverage of `wall_ns` by `spans` (one thread's buffer).
    pub fn of(spans: &[Span], wall_ns: u64) -> Coverage {
        let mut by_layer = BTreeMap::new();
        let mut bench_ns = 0u64;
        for (name, a) in aggregate(spans) {
            match layer_of(name) {
                Some(l) => *by_layer.entry(l).or_insert(0) += a.self_ns,
                None => bench_ns += a.self_ns,
            }
        }
        let covered: u64 = by_layer.values().sum();
        let base = wall_ns.saturating_sub(bench_ns).max(1);
        Coverage {
            frac: covered as f64 / base as f64,
            by_layer,
            bench_ns,
            wall_ns,
        }
    }

    /// Fails with the uncovered gap when layers explain less than `min`.
    pub fn check(&self, min: f64, what: &str) -> Result<(), String> {
        if self.frac >= min {
            return Ok(());
        }
        let covered: u64 = self.by_layer.values().sum();
        let gap = self.wall_ns.saturating_sub(self.bench_ns + covered);
        Err(format!(
            "{what}: layer self time covers {:.1}% of {:.1} ms traced wall time \
             (bench work {:.1} ms excluded); {:.1} ms is in no span; per layer (ms): {}",
            100.0 * self.frac,
            self.wall_ns as f64 / 1e6,
            self.bench_ns as f64 / 1e6,
            gap as f64 / 1e6,
            self.by_layer
                .iter()
                .map(|(l, ns)| format!("{l}={:.1}", *ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(" ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "runtime.tick",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                allocs: 7,
            },
            Span {
                name: "sim.deploy",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                allocs: 5,
            },
            Span {
                name: "core.search",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                allocs: 0,
            },
        ];
        let a = aggregate(&spans);
        assert_eq!(a["runtime.tick"].self_ns, 50);
        assert_eq!(a["runtime.tick"].self_allocs, 2);
        assert_eq!(a["sim.deploy"].self_ns, 30);
        let c = Coverage::of(&spans, 125);
        assert_eq!(c.by_layer["runtime"], 50);
        assert!((c.frac - 0.8).abs() < 1e-12);
        assert!(c.check(0.9, "t").unwrap_err().contains("80.0%"));
        assert!(c.check(0.8, "t").is_ok());
    }

    #[test]
    fn spans_nest_and_count_allocations_per_thread() {
        count_allocations(true);
        start();
        let v = span("runtime.outer", || {
            span("sim.inner", || vec![1u8; 64]);
            reported_child("core.search", 0);
            span("bench.input", || 3)
        });
        assert_eq!(v, 3);
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "core.search");
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].allocs >= 1);
        assert_eq!(layer_of("bench.input"), None);
        assert_eq!(layer_of("sim.inner"), Some("sim"));
        start();
        set_paused(true);
        span("sim.skipped", || ());
        set_paused(false);
        span("sim.kept", || ());
        let spans = finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "sim.kept");
        // With recording off, spans are plain calls.
        assert_eq!(span("sim.x", || 5), 5);
        assert!(finish().is_empty());
    }
}
