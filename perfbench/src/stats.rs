//! Percentiles, process CPU and memory readings, and the result line.

use std::fmt::Write;

/// Nearest-rank quantile (`q` in `[0, 1]`) of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` (any order) without their lowest and highest tenth;
/// fewer than ten values are all kept.
///
/// Per-chunk figures and set-up times are summarized this way rather than
/// by their median. On a shared host the machine's speed switches between
/// levels every few seconds (a fixed loop took 10–16 ms from one
/// two-second window to the next on the 2-vCPU machine the bounds were set
/// on, with its thread's CPU time equal to its wall time, so this is not
/// steal). A median of chunks lands on one level or the other from run to
/// run; a mean weighs the levels by the time spent in each, and dropping a
/// tenth at each end keeps a rare stall from moving it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every Linux ABI the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of process `pid` (`"self"` for this one),
/// summed over all its threads.
pub fn cpu_seconds(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident size, so the next [`peak_rss_mb`] reading covers only what ran
/// in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed operation, graded against its known answer.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operation class (a corpus program, cold/warm revision, request kind).
    pub class: String,
    /// Latency in milliseconds.
    pub ms: f64,
    /// Whether the outcome equalled the known answer.
    pub ok: bool,
}

/// The seven end-to-end metrics of one untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ok_frac: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub goodput_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Summarizes the measured phase `m` over `ops`, the operations of
    /// its chunks in order with their latencies at reference speed
    /// ([`crate::Measured::at_reference_speed`]).
    ///
    /// The percentiles and goodput are taken per chunk and their
    /// [`trimmed_mean`] over chunks is reported, so the run's figure is an
    /// average over the machine's speed levels during it; a run of one
    /// chunk reports its own figures. Goodput and CPU time are brought to
    /// reference speed with each chunk's slowdown, as the latencies were.
    pub fn from_ops(setup_s: f64, ops: &[Op], m: &crate::Measured) -> Self {
        let (per_chunk, chunks) = m.chunks(ops.len());
        let (mut p50, mut p90, mut goodput) = (Vec::new(), Vec::new(), Vec::new());
        for (chunk, (wall_s, slowdown)) in ops.chunks(per_chunk).zip(chunks) {
            let mut ms: Vec<f64> = chunk.iter().map(|o| o.ms).collect();
            ms.sort_by(f64::total_cmp);
            p50.push(quantile(&ms, 0.5));
            p90.push(quantile(&ms, 0.9));
            goodput.push(chunk.iter().filter(|o| o.ok).count() as f64 / wall_s * slowdown);
        }
        let cpu_s: f64 = m.cpu_s.iter().zip(&m.slowdown).map(|(c, s)| c / s).sum();
        let ok = ops.iter().filter(|o| o.ok).count() as f64;
        EndToEnd {
            setup_s,
            ok_frac: ok / ops.len() as f64,
            latency_p50_ms: trimmed_mean(&p50),
            latency_p90_ms: trimmed_mean(&p90),
            goodput_per_s: trimmed_mean(&goodput),
            cpu_ms_per_op: cpu_s * 1e3 / ops.len() as f64,
            peak_rss_mb: m.rss_mb,
        }
    }

    /// `(name, value, unit)` rows in `BENCHMARK.json` order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("ok_frac", self.ok_frac, "ratio"),
            ("latency_p50_ms", self.latency_p50_ms, "ms"),
            ("latency_p90_ms", self.latency_p90_ms, "ms"),
            ("goodput_per_s", self.goodput_per_s, "1/s"),
            ("cpu_ms_per_op", self.cpu_ms_per_op, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// The class at percentile rank `q` and how firmly the percentile sits
/// inside it: the share of the samples within ±2.5% of the rank that
/// belong to the same program family (a program's correct and buggy
/// versions cost alike and count as one). A share of 1 means the
/// percentile is nowhere near the boundary between two classes.
pub fn class_at(ops: &[Op], q: f64) -> (String, f64) {
    let mut sorted: Vec<&Op> = ops.iter().collect();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let n = sorted.len();
    if n == 0 {
        return ("none".to_string(), 0.0);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let window = ((0.025 * n as f64).ceil() as usize).max(1);
    let lo = rank.saturating_sub(window);
    let hi = (rank + window).min(n - 1);
    let class = family(&sorted[rank].class);
    let same = sorted[lo..=hi]
        .iter()
        .filter(|o| family(&o.class) == class)
        .count();
    (class.to_string(), same as f64 / (hi - lo + 1) as f64)
}

/// A class without its variant suffix (`QL-13/bug` → `QL-13`).
pub fn family(class: &str) -> &str {
    class.split('/').next().unwrap_or(class)
}

/// Renders the result line: `{"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}`. A value that is not finite
/// is written as `null` (the caller marks such a run incorrect).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    rows: &[(String, f64, String)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::trimmed_mean;

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&values), 5.5);
        let mut stalled = values.clone();
        stalled[3] = 1000.0;
        assert_eq!(
            trimmed_mean(&stalled),
            (2.0 + 3.0 + 5.0 + 6.0 + 7.0 + 8.0 + 9.0 + 10.0) / 8.0
        );
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
    }
}
