//! How fast the machine runs, measured beside the `corpus` and `revise`
//! workloads so that their times can be reported at a fixed speed.
//!
//! The benchmark gets a few vCPUs of a shared host, and their speed drifts
//! with what the host's other tenants do. On the 2-vCPU Xeon VM the bounds
//! were set on, the corpus median latency rose by half over four minutes
//! and its CPU time per operation rose with it, so the cores themselves
//! ran slower; this is not steal, and no averaging inside a 30-second run
//! removes a drift that slow. So after every timed operation the benchmark
//! runs a fixed reference computation — its own code, which no change to
//! the program can make faster or slower — and each chunk's times are
//! divided by its slowdown: the reference's mean time in that chunk over
//! [`NOMINAL_MS`]. The reference runs the same number of times after every
//! operation, and its first run is a warm-up left out of the mean, so the
//! slowdown depends neither on how long the operations take nor on what
//! they leave in the caches. Set-up is divided by the slowdown the
//! reference shows just around it ([`at_reference_speed`]).
//!
//! In probes on that VM, regressing log chunk time on log reference time
//! gave slopes near 1: on `corpus` (69 chunks) 0.73 for p50, 1.00 for p90
//! and 0.74 for CPU per operation (R² 0.6–0.9); on `revise` (40 chunks)
//! 0.74, 0.86 and 0.71 (R² about 0.8); set-up 0.72 and 0.81 (R² 0.77 and
//! 0.64). In the ten-seed sets of `STEADINESS.md` the percentiles as
//! measured (pooled over each run) spread by 0.15–0.35 ((q3 − q1) /
//! median) on `corpus` and 0.17–0.22 on `revise`, and at reference speed
//! by 0.05–0.09 and 0.05–0.07. `serve`'s latency is mostly queueing and
//! network time, and it stays as measured.
//!
//! What it cannot see: a change that slows the benchmark's own thread
//! between operations (a busy background thread in the program, say)
//! slows the reference too and is partly scaled away; `cpu_ms_per_op`,
//! which counts every thread of the process, still shows it.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Mean milliseconds of one timed [`reference`] run on the machine the
/// bounds were set on (2-vCPU Intel Xeon VM), so times at reference speed
/// read about as that machine's times do.
pub const NOMINAL_MS: f64 = 0.06;

/// Timed reference runs after each operation.
const TIMED_RUNS: u64 = 3;

/// Since the last [`take`]: timed reference runs, their nanoseconds, and
/// the nanoseconds of every run, warm-ups included (statistics only, so
/// relaxed ordering suffices).
static TIMED: AtomicU64 = AtomicU64::new(0);
static TIMED_NANOS: AtomicU64 = AtomicU64::new(0);
static ALL_NANOS: AtomicU64 = AtomicU64::new(0);

/// The reference computation: a small version of the two kinds of work a
/// verification does — rotations swept over an 8-qubit state vector, and
/// formatted strings kept in an ordered map. Returns its nanoseconds.
fn reference() -> u64 {
    let t = Instant::now();
    let n = 1usize << 8;
    let mut re = vec![0.0f64; n];
    let mut im = vec![0.0f64; n];
    re[0] = 1.0;
    let (c, s) = black_box((0.6f64, 0.8f64));
    for _ in 0..4 {
        for q in 0..8 {
            let bit = 1 << q;
            for i in (0..n).filter(|i| i & bit == 0) {
                let j = i | bit;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
    }
    let mut map = std::collections::BTreeMap::new();
    let mut x = black_box(12345u64);
    for i in 0..300u64 {
        x = crate::mix(x, i);
        map.insert(x % 100, format!("{x:x}"));
    }
    black_box((re.iter().sum::<f64>(), map.len()));
    let nanos = t.elapsed().as_nanos() as u64;
    ALL_NANOS.fetch_add(nanos, Ordering::Relaxed);
    nanos
}

/// Runs the reference after an operation: a warm-up, then
/// [`TIMED_RUNS`] timed runs.
pub fn after_op() {
    reference();
    for _ in 0..TIMED_RUNS {
        let nanos = reference();
        TIMED.fetch_add(1, Ordering::Relaxed);
        TIMED_NANOS.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Reference bursts ([`after_op`]) run before and after a timed set-up.
const SETUP_BURSTS: usize = 5;

/// Runs `f`, which returns a value and its seconds, and returns the value
/// with the seconds divided by the slowdown the reference shows just
/// before and just after it.
pub fn at_reference_speed<T>(f: impl FnOnce() -> (T, f64)) -> (T, f64) {
    take();
    (0..SETUP_BURSTS).for_each(|_| after_op());
    let (value, secs) = f();
    (0..SETUP_BURSTS).for_each(|_| after_op());
    (value, secs / take().slowdown)
}

/// The reference runs since the last [`take`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The timed runs' mean time over [`NOMINAL_MS`]; 1 when there were
    /// none.
    pub slowdown: f64,
    /// Seconds all runs took, warm-ups included.
    pub spent_s: f64,
}

/// Returns the reference runs since the last call and starts anew.
pub fn take() -> Sample {
    let timed = TIMED.swap(0, Ordering::Relaxed);
    let timed_ms = TIMED_NANOS.swap(0, Ordering::Relaxed) as f64 / 1e6;
    let spent_s = ALL_NANOS.swap(0, Ordering::Relaxed) as f64 / 1e9;
    let slowdown = if timed == 0 {
        1.0
    } else {
        timed_ms / timed as f64 / NOMINAL_MS
    };
    Sample { slowdown, spent_s }
}

/// A report line: the chunks' slowdowns and the latencies as measured,
/// before scaling (`ops` in chunk order, not yet at reference speed).
pub fn note(m: &crate::Measured, ops: &[crate::stats::Op]) -> String {
    let (lo, hi) = m
        .slowdown
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let mean = m.slowdown.iter().sum::<f64>() / m.slowdown.len().max(1) as f64;
    let mut ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    ms.sort_by(f64::total_cmp);
    let (p50, p90) = if ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            crate::stats::quantile(&ms, 0.5),
            crate::stats::quantile(&ms, 0.9),
        )
    };
    format!(
        "host slowdown {mean:.3} (chunks {lo:.3}–{hi:.3}, {} chunks); as measured, pooled: \
         p50 {p50:.3} ms, p90 {p90:.3} ms\n",
        m.slowdown.len()
    )
}
