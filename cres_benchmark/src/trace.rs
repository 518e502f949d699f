//! Benchmark-side tracing: spans around public layer calls, plus a
//! counting allocator so every span also knows its allocations and one
//! untimed call can measure its peak heap.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the library; the library itself carries no instrumentation for this.
//! A span stores its name, start, end, parent and run id, and stays in
//! memory until the pass ends, when [`Tracer::chrome_trace`] writes the
//! pass as a Chrome `trace_event` document and [`Tracer::layers`] folds
//! it into self time per layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

/// Whether the allocator counts. Off for untraced runs, so end-to-end
/// timings pay one predictable branch per allocation and nothing else.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Allocations made by this thread while counting was on. Per
    /// thread, so worker threads never contend on one counter.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations per thread, delegating the memory work to
/// [`System`].
pub struct CountingAlloc;

/// Whether the allocator tracks live heap bytes (inside [`peak_heap`]).
static HEAP_TRACKING: AtomicBool = AtomicBool::new(false);
/// Heap bytes allocated minus bytes freed since [`peak_heap`] began; a
/// statistic, so `Relaxed` throughout.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Highest value `LIVE` reached.
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread is being torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

#[inline]
fn heap_delta(bytes: i64) {
    if HEAP_TRACKING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects on a
// const-initialised thread-local and on static atomics, none of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        heap_delta(signed(layout.size()));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        heap_delta(signed(layout.size()));
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        heap_delta(-signed(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        heap_delta(signed(new_size) - signed(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns its result with the most heap bytes that were live
/// at once during it, counted from the bytes live when it began. Every
/// thread's allocations count, so nothing else may run meanwhile; the
/// tracking costs two atomic operations per allocation, so `f` is not
/// timed.
pub fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    HEAP_TRACKING.store(true, Ordering::Relaxed);
    let out = f();
    HEAP_TRACKING.store(false, Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed).unsigned_abs())
}

/// Turns allocation counting on for the rest of the process.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocations this thread has made since counting was turned on.
pub fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Parent index of a span recorded outside any other span.
const ROOT: u32 = u32::MAX;

/// Run id of a span that belongs to the whole pass rather than one run.
pub const PASS: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `crate.module` style.
    pub name: &'static str,
    /// Run (device, job or cell) the call served; [`PASS`] for pass-wide.
    pub run: u32,
    /// Index of the enclosing span.
    parent: u32,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Allocations made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    /// Wall time of the span, children included.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether the span is outermost.
    pub fn is_root(&self) -> bool {
        self.parent == ROOT
    }
}

/// An open span handle from [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<u32>);

/// Self time and allocations of one layer over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Calls recorded.
    pub calls: u64,
    /// Span time minus the time of child spans, summed.
    pub self_ns: u64,
    /// Allocations minus those of child spans, summed.
    pub self_allocs: u64,
}

/// The span recorder; a disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, run: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            run,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            start_ns: self.now_ns(),
            end_ns: 0,
            // allocation count at open; turned into a delta by `end`
            allocs: allocs(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        debug_assert_eq!(self.stack.last(), Some(&index), "spans close in order");
        self.stack.pop();
        let end_ns = self.now_ns();
        let at_end = allocs();
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.allocs = at_end - span.allocs;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, run: u32, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, run);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if !span.is_root() {
                child_ns[span.parent as usize] += span.dur_ns();
                child_allocs[span.parent as usize] += span.allocs;
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.self_ns += span.dur_ns().saturating_sub(child_ns[i]);
            layer.self_allocs += span.allocs.saturating_sub(child_allocs[i]);
        }
        layers
    }

    /// The pass as a Chrome `trace_event` document (one process, one
    /// thread, timestamps in microseconds since the pass began).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"reference pass\"}}",
        );
        for (i, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\"run\":{},\"allocs\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                id_or_minus_one(span.parent),
                id_or_minus_one(span.run),
                span.allocs,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Renders the "none" sentinel as -1 so a trace reader sees no fake id.
fn id_or_minus_one(id: u32) -> i64 {
    if id == u32::MAX {
        -1
    } else {
        i64::from(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let outer = tr.begin("outer", 0);
        let v = tr.span("inner", 0, || (0..10_000u64).sum::<u64>());
        std::hint::black_box(v);
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].is_root() && !spans[1].is_root());
        let layers = tr.layers();
        let outer_self = layers["outer"].self_ns;
        assert_eq!(outer_self, spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(layers["inner"].self_ns, spans[1].dur_ns());
        assert_eq!(layers["inner"].calls, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let open = tr.begin("outer", 0);
        assert_eq!(tr.span("inner", 0, || 5), 5);
        tr.end(open);
        assert!(tr.spans().is_empty());
        assert!(tr.layers().is_empty());
    }

    #[test]
    fn peak_heap_sees_the_high_water_mark() {
        // other tests run on parallel threads and count too: leave slack
        let (len, peak) = peak_heap(|| {
            let big = vec![1u8; 4 << 20];
            let len = big.len();
            drop(big);
            len
        });
        assert_eq!(len, 4 << 20);
        assert!(peak >= 3 << 20, "{peak}");
    }

    #[test]
    fn chrome_trace_is_a_trace_event_document() {
        let mut tr = Tracer::on();
        tr.span("a", 3, || ());
        tr.span("b", PASS, || ());
        let doc = tr.chrome_trace();
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("]}"));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"run\":3"));
        assert!(doc.contains("\"run\":-1"));
    }
}
