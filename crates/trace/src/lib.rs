//! Zero-dependency structured telemetry for the verification pipeline.
//!
//! MorphQPV's value proposition is *confident* verification, which makes
//! "where did this run spend its effort, and why is this answer
//! low-confidence?" first-class questions. This crate answers them with
//! three primitives recorded into one process-wide, thread-safe recorder:
//!
//! - **Spans** ([`span`] / [`span_under`]): named regions with monotonic
//!   start/duration timestamps, forming a tree. Worker threads attach to a
//!   parent captured before fan-out, so `morph-parallel` regions nest
//!   correctly.
//! - **Counters** ([`counter`]): monotonically accumulated `u64`s attached
//!   to the innermost open span of the calling thread (or to the trace
//!   root when no span is open). Concurrent increments from workers merge
//!   by addition, so totals are worker-count independent.
//! - **Gauges** ([`gauge`]): appended `f64` samples — a cheap way to record
//!   trajectories (e.g. best-objective-so-far per solver restart) or fitted
//!   parameters (β₁/β₂ of the confidence model).
//!
//! # Cost model
//!
//! Tracing is **off by default** and *off-cost* when disabled: every entry
//! point first reads one relaxed [`AtomicBool`]; when it is `false` the
//! call returns immediately without locking or allocating. Instrumented
//! code must therefore be safe to leave in hot paths as long as call sites
//! are at a sensible granularity (per run / per gate batch, not per
//! amplitude).
//!
//! # Determinism
//!
//! The recorder observes; it never produces data the pipeline consumes and
//! never touches an RNG, so enabling tracing cannot perturb verification
//! results. `tests/trace_determinism.rs` in the workspace root asserts
//! bit-identical verdicts with tracing on and off at several worker
//! counts.
//!
//! # Examples
//!
//! ```
//! morph_trace::reset();
//! morph_trace::set_enabled(true);
//! {
//!     let _outer = morph_trace::span("characterize");
//!     morph_trace::counter("inputs", 4);
//!     morph_trace::gauge("beta1", 2.5);
//! }
//! let json = morph_trace::export_json();
//! assert!(json.contains("\"name\":\"characterize\""));
//! morph_trace::set_enabled(false);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks a mutex, recovering the inner guard if a previous holder panicked.
///
/// The recorder's invariants hold at every lock release point, so a
/// poisoned lock (some instrumented thread panicked mid-record) is safe to
/// keep using: at worst one event is missing. Telemetry must never amplify
/// a contained panic into a process-wide cascade. Public because the serve
/// layer applies the same policy to its own service state.
pub fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Schema version stamped into every JSON export (see
/// `docs/trace-schema.json`).
pub const TRACE_SCHEMA_VERSION: u64 = 1;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables recording.
///
/// Disabling does not clear already-recorded data; [`reset`] does.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recorder is currently accepting events. One relaxed atomic
/// load — the only cost instrumented code pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables recording when the `MORPH_TRACE` environment variable is set to
/// anything other than `0` or the empty string. Returns the resulting
/// enabled state.
pub fn enable_from_env() -> bool {
    if asks_for_tracing(std::env::var("MORPH_TRACE").ok().as_deref()) {
        set_enabled(true);
    }
    enabled()
}

/// Whether a `MORPH_TRACE` value enables recording: set, non-empty and
/// not `0`.
fn asks_for_tracing(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// A handle to a recorded span, used to parent work that crosses thread
/// boundaries (capture with [`current_span`], consume with [`span_under`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct SpanNode {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    duration_ns: Option<u64>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<f64>>,
}

/// Fixed-memory log2-bucketed `u64` histogram.
///
/// Bucket `i` counts samples whose bit length is `i` (bucket 0 holds the
/// value 0, bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`). 65 buckets cover
/// the full `u64` range, so recording is O(1) and allocation-free after
/// the first sample — cheap enough for per-request latencies.
#[derive(Debug, Clone)]
struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn hist_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Upper bound of bucket `i` (the representative value a quantile reports).
fn hist_bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Hist {
    fn record(&mut self, value: u64) {
        self.buckets[hist_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Upper bound of the bucket containing the `q`-quantile sample,
    /// clamped to the observed maximum (so `p100 == max` exactly).
    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(hist_bucket_hi(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[derive(Debug, Default)]
struct Recorder {
    spans: Vec<SpanNode>,
    /// Counters recorded with no open span on the calling thread.
    root_counters: BTreeMap<String, u64>,
    /// Gauges recorded with no open span on the calling thread.
    root_gauges: BTreeMap<String, Vec<f64>>,
    /// Process-level histograms (always root — a latency distribution is a
    /// property of the run, not of any one span).
    histograms: BTreeMap<String, Hist>,
}

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| Mutex::new(Recorder::default()))
}

/// Monotonic epoch shared by every span in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Stack of open span ids on this thread; the top is the implicit
    /// parent for new spans, counters, and gauges.
    static CURRENT: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Clears every recorded span, counter, and gauge (the enabled flag is
/// untouched). Call between independent runs sharing a process.
pub fn reset() {
    let mut rec = lock_or_recover(recorder());
    rec.spans.clear();
    rec.root_counters.clear();
    rec.root_gauges.clear();
    rec.histograms.clear();
}

/// RAII guard for an open span: records the duration when dropped.
///
/// When tracing is disabled at [`span`] time the guard is inert (no id, no
/// allocation) and dropping it is free.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    id: Option<usize>,
}

impl SpanGuard {
    /// The recorded span's id, for parenting cross-thread children.
    pub fn id(&self) -> Option<SpanId> {
        self.id.map(SpanId)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = now_ns();
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if stack.last() == Some(&id) {
                stack.pop();
            }
        });
        let mut rec = lock_or_recover(recorder());
        if let Some(node) = rec.spans.get_mut(id) {
            node.duration_ns = Some(end.saturating_sub(node.start_ns));
        }
    }
}

fn open_span(name: &str, parent: Option<usize>) -> SpanGuard {
    let start_ns = now_ns();
    let id = {
        let mut rec = lock_or_recover(recorder());
        let id = rec.spans.len();
        rec.spans.push(SpanNode {
            name: name.to_string(),
            parent,
            start_ns,
            duration_ns: None,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        });
        id
    };
    CURRENT.with(|c| c.borrow_mut().push(id));
    SpanGuard { id: Some(id) }
}

/// Opens a span named `name` under the calling thread's innermost open
/// span (or as a root span). Returns an inert guard when tracing is
/// disabled.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: None };
    }
    let parent = CURRENT.with(|c| c.borrow().last().copied());
    open_span(name, parent)
}

/// Opens a span under an explicit parent — the composition point for
/// `morph-parallel` workers: capture [`current_span`] before the fan-out,
/// then open per-task spans under it from any thread.
pub fn span_under(parent: Option<SpanId>, name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: None };
    }
    open_span(name, parent.map(|p| p.0))
}

/// The calling thread's innermost open span, if any (and tracing is on).
pub fn current_span() -> Option<SpanId> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().last().copied().map(SpanId))
}

fn with_sink<F: FnOnce(&mut BTreeMap<String, u64>, &mut BTreeMap<String, Vec<f64>>)>(f: F) {
    let target = CURRENT.with(|c| c.borrow().last().copied());
    let mut rec = lock_or_recover(recorder());
    match target {
        Some(id) => {
            let node = &mut rec.spans[id];
            // Split borrow through the node.
            let SpanNode {
                counters, gauges, ..
            } = node;
            f(counters, gauges);
        }
        None => {
            let Recorder {
                root_counters,
                root_gauges,
                ..
            } = &mut *rec;
            f(root_counters, root_gauges);
        }
    }
}

/// Adds `delta` to the counter `name` on the calling thread's innermost
/// open span (or the trace root). No-op when tracing is disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_sink(|counters, _| {
        *counters.entry(name.to_string()).or_insert(0) += delta;
    });
}

/// Adds `delta` to counter `name` directly on span `id` — for workers that
/// hold a parent handle but no open span of their own.
pub fn counter_on(id: SpanId, name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut rec = lock_or_recover(recorder());
    if let Some(node) = rec.spans.get_mut(id.0) {
        *node.counters.entry(name.to_string()).or_insert(0) += delta;
    }
}

/// Appends a sample to the gauge `name` on the calling thread's innermost
/// open span (or the trace root). Repeated calls build a trajectory.
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_sink(|_, gauges| {
        gauges.entry(name.to_string()).or_default().push(value);
    });
}

/// A read-only snapshot of one exported span (used by summaries).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Nanoseconds from the trace epoch to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 when the span is still open).
    pub duration_ns: u64,
    /// Accumulated counters.
    pub counters: BTreeMap<String, u64>,
}

/// Flat list of every recorded span, in creation order. Mostly for tests
/// and summaries; [`export_json`] preserves the tree.
pub fn span_summaries() -> Vec<SpanSummary> {
    let rec = lock_or_recover(recorder());
    rec.spans
        .iter()
        .map(|s| SpanSummary {
            name: s.name.clone(),
            start_ns: s.start_ns,
            duration_ns: s.duration_ns.unwrap_or(0),
            counters: s.counters.clone(),
        })
        .collect()
}

/// Sums counter `name` across every recorded span and the root.
pub fn counter_total(name: &str) -> u64 {
    let rec = lock_or_recover(recorder());
    rec.spans
        .iter()
        .filter_map(|s| s.counters.get(name))
        .chain(rec.root_counters.get(name))
        .sum()
}

/// Concatenates the samples of gauge `name` across every recorded span and
/// the root, in span-creation order (root samples last). The counterpart of
/// [`counter_total`] for trajectories like queue depth.
pub fn gauge_samples(name: &str) -> Vec<f64> {
    let rec = lock_or_recover(recorder());
    rec.spans
        .iter()
        .filter_map(|s| s.gauges.get(name))
        .chain(rec.root_gauges.get(name))
        .flatten()
        .copied()
        .collect()
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Records a `u64` sample (typically nanoseconds) into the process-level
/// log2-bucketed histogram `name`. O(1), allocation-free after the first
/// sample per name; no-op when tracing is disabled.
pub fn histogram(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut rec = lock_or_recover(recorder());
    rec.histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Number of samples recorded into histogram `name` (0 when absent).
pub fn histogram_count(name: &str) -> u64 {
    let rec = lock_or_recover(recorder());
    rec.histograms.get(name).map_or(0, |h| h.count)
}

/// The `q`-quantile (`q` in `[0,1]`) of histogram `name`, reported as the
/// upper bound of the log2 bucket the quantile sample fell in (clamped to
/// the observed max, so `histogram_quantile(n, 1.0)` is the exact max).
/// `None` when the histogram is absent or empty.
pub fn histogram_quantile(name: &str, q: f64) -> Option<u64> {
    let rec = lock_or_recover(recorder());
    rec.histograms.get(name).and_then(|h| h.quantile(q))
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `f64` in a JSON-safe rendering: finite values print shortest-roundtrip,
/// non-finite values become strings (plain JSON has no NaN/Infinity).
fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let text = format!("{v}");
        // `{}` on an integral f64 prints without a dot; keep it a number
        // either way (JSON accepts both) but make the type visible.
        out.push_str(&text);
        if !text.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        escape_json(&format!("{v}"), out);
    }
}

fn write_counters(counters: &BTreeMap<String, u64>, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(k, out);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push('}');
}

fn write_gauges(gauges: &BTreeMap<String, Vec<f64>>, out: &mut String) {
    out.push('{');
    for (i, (k, samples)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(k, out);
        out.push_str(":[");
        for (j, s) in samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_f64(*s, out);
        }
        out.push(']');
    }
    out.push('}');
}

fn write_span(rec: &Recorder, id: usize, children: &[Vec<usize>], out: &mut String) {
    let node = &rec.spans[id];
    out.push_str("{\"name\":");
    escape_json(&node.name, out);
    out.push_str(&format!(",\"start_ns\":{}", node.start_ns));
    out.push_str(&format!(
        ",\"duration_ns\":{}",
        node.duration_ns.unwrap_or(0)
    ));
    out.push_str(",\"counters\":");
    write_counters(&node.counters, out);
    out.push_str(",\"gauges\":");
    write_gauges(&node.gauges, out);
    out.push_str(",\"children\":[");
    for (i, &child) in children[id].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_span(rec, child, children, out);
    }
    out.push_str("]}");
}

/// Renders the recorded span tree as a self-contained JSON document
/// (schema: `docs/trace-schema.json`, version [`TRACE_SCHEMA_VERSION`]).
///
/// Still-open spans export with `duration_ns: 0`. The export reflects
/// whatever has been recorded — it works with tracing enabled or disabled.
pub fn export_json() -> String {
    let rec = lock_or_recover(recorder());
    let n = rec.spans.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots: Vec<usize> = Vec::new();
    for (id, node) in rec.spans.iter().enumerate() {
        match node.parent {
            // A dangling parent id (possible only through recorder misuse)
            // degrades to a root rather than a panic.
            Some(p) if p < n && p != id => children[p].push(id),
            _ => roots.push(id),
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{{\"version\":{TRACE_SCHEMA_VERSION}"));
    out.push_str(",\"counters\":");
    write_counters(&rec.root_counters, &mut out);
    out.push_str(",\"gauges\":");
    write_gauges(&rec.root_gauges, &mut out);
    out.push_str(",\"histograms\":{");
    for (i, (name, h)) in rec.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(name, &mut out);
        out.push_str(&format!(
            ":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
            h.count, h.sum, h.max
        ));
        let mut first = true;
        for (b, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{},{}]", hist_bucket_hi(b), c));
        }
        out.push_str("]}");
    }
    out.push('}');
    out.push_str(",\"spans\":[");
    for (i, &root) in roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_span(&rec, root, &children, &mut out);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global, so tests serialize on one lock to
    /// avoid interleaving each other's spans.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        guard
    }

    #[test]
    fn disabled_tracing_records_nothing_and_allocates_no_ids() {
        let _g = serial();
        set_enabled(false);
        let s = span("ignored");
        assert!(s.id().is_none());
        counter("ignored", 3);
        gauge("ignored", 1.0);
        drop(s);
        assert!(span_summaries().is_empty());
        assert_eq!(counter_total("ignored"), 0);
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let _g = serial();
        {
            let _outer = span("outer");
            counter("work", 2);
            {
                let _inner = span("inner");
                counter("work", 3);
            }
        }
        let spans = span_summaries();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "inner");
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert_eq!(spans[0].counters["work"], 2);
        assert_eq!(spans[1].counters["work"], 3);
        assert_eq!(counter_total("work"), 5);
        set_enabled(false);
    }

    #[test]
    fn cross_thread_children_attach_to_the_captured_parent() {
        let _g = serial();
        let parent = span("fan-out");
        let parent_id = current_span();
        assert!(parent_id.is_some());
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                scope.spawn(move || {
                    let _child = span_under(parent_id, "task");
                    counter("tasks", 1);
                    counter_on(parent_id.unwrap(), "children", i + 1);
                });
            }
        });
        drop(parent);
        let json = export_json();
        assert_eq!(counter_total("tasks"), 4);
        // All four task spans render inside the fan-out span.
        let fanout_idx = json.find("\"name\":\"fan-out\"").unwrap();
        assert_eq!(json.matches("\"name\":\"task\"").count(), 4);
        assert!(json.find("\"name\":\"task\"").unwrap() > fanout_idx);
        set_enabled(false);
    }

    #[test]
    fn json_export_shape_and_escaping() {
        let _g = serial();
        {
            let _s = span("quote\"and\\slash");
            gauge("objective", 0.5);
            gauge("objective", f64::NAN);
            gauge("whole", 2.0);
        }
        let json = export_json();
        assert!(json.starts_with(&format!("{{\"version\":{TRACE_SCHEMA_VERSION}")));
        assert!(json.contains("quote\\\"and\\\\slash"));
        assert!(json.contains("\"NaN\""), "non-finite gauges become strings");
        assert!(json.contains("2.0"), "integral f64 keeps a decimal point");
        assert!(json.contains("\"duration_ns\":"));
        set_enabled(false);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = serial();
        {
            let _s = span("x");
            counter("c", 1);
        }
        counter("root", 1);
        reset();
        assert!(span_summaries().is_empty());
        assert_eq!(counter_total("root"), 0);
        assert_eq!(export_json().matches("\"name\"").count(), 0);
        set_enabled(false);
    }

    #[test]
    fn rootless_counters_land_on_the_root_object() {
        let _g = serial();
        counter("orphan", 7);
        gauge("orphan_g", 1.25);
        let json = export_json();
        assert!(json.contains("\"orphan\":7"));
        assert!(json.contains("\"orphan_g\":[1.25]"));
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_quantiles_and_export() {
        let _g = serial();
        // 90 fast samples at 100ns, 10 slow at 1_000_000ns.
        for _ in 0..90 {
            histogram("latency_ns", 100);
        }
        for _ in 0..10 {
            histogram("latency_ns", 1_000_000);
        }
        assert_eq!(histogram_count("latency_ns"), 100);
        // p50 lands in the bucket holding 100 (bit length 7 → hi 127).
        assert_eq!(histogram_quantile("latency_ns", 0.5), Some(127));
        // p99 lands in the slow bucket; p100 is the exact max.
        assert!(histogram_quantile("latency_ns", 0.99).unwrap() >= 1_000_000);
        assert_eq!(histogram_quantile("latency_ns", 1.0), Some(1_000_000));
        assert_eq!(histogram_quantile("absent", 0.5), None);
        let json = export_json();
        assert!(json.contains("\"histograms\":{\"latency_ns\":{\"count\":100"));
        assert!(json.contains("\"buckets\":[[127,90],"));
        set_enabled(false);
    }

    #[test]
    fn histogram_zero_and_max_values_have_buckets() {
        let _g = serial();
        histogram("edge", 0);
        histogram("edge", u64::MAX);
        assert_eq!(histogram_quantile("edge", 0.0), Some(0));
        assert_eq!(histogram_quantile("edge", 1.0), Some(u64::MAX));
        set_enabled(false);
    }

    #[test]
    fn enable_from_env_only_reacts_to_nonzero() {
        assert!(!asks_for_tracing(None));
        assert!(!asks_for_tracing(Some("")));
        assert!(!asks_for_tracing(Some("0")));
        assert!(asks_for_tracing(Some("1")));
        assert!(asks_for_tracing(Some("json")));
    }
}
