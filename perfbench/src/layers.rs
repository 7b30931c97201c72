//! Per-layer accounting for traced runs.
//!
//! The benchmark opens one `bench/op` span per operation and, under it,
//! one span per call into a layer (see [`crate::plain::span`]); the spans
//! the program already records nest below those. Probes — copies of work
//! the program does inside one call, repeated so the layers it calls
//! internally can be timed — run after the operation under their own
//! `bench/probe` root, so an operation's latency and coverage hold only
//! the calls a user makes. After the run the
//! recorder's JSON export (`morph_trace::export_json`, schema
//! `docs/trace-schema.json`) is linted with the repository's `trace_lint`
//! check and folded into per-name call counts, busy time and self time —
//! a span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

use serde::json::Value;

/// Root span of one benchmark operation.
pub const OP_SPAN: &str = "bench/op";

/// Calls, busy and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// The folded span tree of a traced run.
#[derive(Debug, Default)]
pub struct Profile {
    /// Per span name.
    pub layers: BTreeMap<String, Layer>,
    /// Operations (`bench/op` spans) seen.
    pub ops: u64,
    /// Wall time of all operations.
    pub op_ns: u64,
    /// Part of the operations' wall time covered by their direct child
    /// spans (calls the benchmark timed).
    pub covered_ns: u64,
    /// Root counters and counters summed over all spans.
    pub counters: BTreeMap<String, u64>,
}

impl Profile {
    /// Busy milliseconds per operation of span `name`.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        let busy = self.layers.get(name).map_or(0, |l| l.busy_ns);
        busy as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// Share of operation wall time inside timed calls.
    pub fn coverage(&self) -> f64 {
        self.covered_ns as f64 / self.op_ns.max(1) as f64
    }

    /// The per-layer table: calls, busy and self milliseconds per name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>9} {:>12} {:>12} {:>10}\n",
            "span", "calls", "busy_ms", "self_ms", "ms/op"
        );
        for (name, l) in &self.layers {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.3} {:>12.3} {:>10.4}",
                name,
                l.calls,
                l.busy_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                self.ms_per_op(name)
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name:<26} {v:>9}");
        }
        out
    }
}

fn num(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(n)) => *n,
        Some(Value::Float(f)) => *f as u64,
        _ => 0,
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

fn walk(node: &Value, profile: &mut Profile) {
    let name = node
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string();
    let start = num(node.get("start_ns"));
    let dur = num(node.get("duration_ns"));
    let children = node
        .get("children")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let spans: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            let s = num(c.get("start_ns"));
            (s, s + num(c.get("duration_ns")))
        })
        .collect();
    let inside = covered(spans, start, start + dur);
    let layer = profile.layers.entry(name.clone()).or_default();
    layer.calls += 1;
    layer.busy_ns += dur;
    layer.self_ns += dur - inside;
    if name == OP_SPAN {
        profile.ops += 1;
        profile.op_ns += dur;
        profile.covered_ns += inside;
    }
    if let Some(Value::Object(counters)) = node.get("counters") {
        for (k, v) in counters {
            *profile.counters.entry(k.clone()).or_default() += num(Some(v));
        }
    }
    for c in children {
        walk(c, profile);
    }
}

/// Parses a `morph_trace` JSON export.
///
/// # Errors
///
/// A message when the export is not JSON.
pub fn parse(export: &str) -> Result<Value, String> {
    serde::json::parse(export).map_err(|e| format!("trace export: {e:?}"))
}

/// Folds a parsed export into a [`Profile`].
pub fn fold(doc: &Value) -> Profile {
    let mut profile = Profile::default();
    if let Some(Value::Object(counters)) = doc.get("counters") {
        for (k, v) in counters {
            *profile.counters.entry(k.clone()).or_default() += num(Some(v));
        }
    }
    for span in doc.get("spans").and_then(Value::as_array).unwrap_or(&[]) {
        walk(span, &mut profile);
    }
    profile
}

/// Lints a parsed export against `docs/trace-schema.json` with the
/// repository's `trace_lint` validator; returns the violations.
pub fn lint(doc: &Value, schema_path: &Path) -> Vec<String> {
    match morph_bench::schema_lint::load(&schema_path.to_string_lossy()) {
        Ok(schema) => {
            let mut errors = Vec::new();
            morph_bench::schema_lint::validate(doc, &schema, &schema, "$", &mut errors);
            errors
        }
        Err(e) => vec![format!("{}: {e}", schema_path.display())],
    }
}

/// Exports the recorder, lints the export, and folds it.
pub fn collect(schema_path: &Path, problems: &mut Vec<String>) -> (Value, Profile) {
    let doc = match parse(&morph_trace::export_json()) {
        Ok(doc) => doc,
        Err(e) => {
            problems.push(e);
            Value::Null
        }
    };
    problems.extend(lint(&doc, schema_path));
    let profile = fold(&doc);
    (doc, profile)
}

/// Quantile `q` of a histogram in an export (upper bound of the log2
/// bucket holding the quantile sample, clamped to the max; buckets export
/// as `[upper_bound, count]` pairs).
pub fn hist_quantile(doc: &Value, name: &str, q: f64) -> Option<u64> {
    let h = doc.get("histograms")?.get(name)?;
    let count = num(h.get("count"));
    let max = num(h.get("max"));
    if count == 0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for b in h.get("buckets")?.as_array()? {
        let pair = b.as_array()?;
        seen += num(pair.get(1));
        if seen >= rank {
            return Some(num(pair.first()).min(max));
        }
    }
    Some(max)
}

/// Visits the export's root and every span below it.
fn visit<'a>(node: &'a Value, f: &mut impl FnMut(&'a Value)) {
    f(node);
    for c in node
        .get("children")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        visit(c, f);
    }
}

fn visit_all<'a>(doc: &'a Value, f: &mut impl FnMut(&'a Value)) {
    f(doc);
    for span in doc.get("spans").and_then(Value::as_array).unwrap_or(&[]) {
        visit(span, f);
    }
}

/// Samples of gauge `name` over the root and every span of an export.
pub fn gauge_samples(doc: &Value, name: &str) -> Vec<f64> {
    let mut out = Vec::new();
    visit_all(doc, &mut |node| {
        for s in node
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            match s {
                Value::Float(f) => out.push(*f),
                Value::UInt(n) => out.push(*n as f64),
                _ => {}
            }
        }
    });
    out
}

/// Durations in milliseconds of every span named `name` in an export.
pub fn span_durations_ms(doc: &Value, name: &str) -> Vec<f64> {
    let mut out = Vec::new();
    visit_all(doc, &mut |node| {
        if node.get("name").and_then(Value::as_str) == Some(name) {
            out.push(num(node.get("duration_ns")) as f64 / 1e6);
        }
    });
    out
}

/// Benchmark-side spans reported as `<span>_ms` (busy milliseconds per
/// operation).
pub const TIMED_SPANS: [&str; 12] = [
    "qprog.parse",
    "backend.plan",
    "qprog.fuse",
    "clifford.ensemble",
    "morphqpv.characterize",
    "morphqpv.validate",
    "morphqpv.incremental",
    "morphqpv.segment_plan",
    "morphqpv.segment_fit",
    "store.get",
    "store.put",
    "plain.verify",
];

/// The span-timed metrics plus the run-validity metrics every traced run
/// reports: tracing overhead on the median latency (traced phase against
/// the untraced phase of the same run; probes are outside the timed
/// operations, so this is the recorder's cost), coverage of operation
/// wall time by timed calls, and peak RSS with the recorder on.
pub fn common_rows(
    profile: &Profile,
    untraced: &crate::stats::EndToEnd,
    traced: &crate::stats::EndToEnd,
) -> Vec<crate::Row> {
    let mut rows: Vec<crate::Row> = TIMED_SPANS
        .iter()
        .map(|s| (format!("{s}_ms"), profile.ms_per_op(s), "ms".to_string()))
        .collect();
    rows.push((
        "trace.overhead_frac".to_string(),
        traced.latency_p50_ms / untraced.latency_p50_ms - 1.0,
        "ratio".to_string(),
    ));
    rows.push((
        "trace.coverage_frac".to_string(),
        profile.coverage(),
        "ratio".to_string(),
    ));
    rows.push((
        "trace.peak_rss_mb".to_string(),
        traced.peak_rss_mb,
        "MiB".to_string(),
    ));
    rows
}

/// The traced run's report: its end-to-end numbers beside the untraced
/// phase's, then the per-layer table.
pub fn render(
    profile: &Profile,
    untraced: &crate::stats::EndToEnd,
    traced: &crate::stats::EndToEnd,
) -> String {
    let mut out = format!("{:<18} {:>14} {:>14}\n", "end-to-end", "untraced", "traced");
    for ((name, u, unit), (_, t, _)) in untraced.rows().into_iter().zip(traced.rows()) {
        let _ = writeln!(out, "{name:<18} {u:>14.4} {t:>14.4} {unit}");
    }
    out.push_str(&profile.table());
    out
}
