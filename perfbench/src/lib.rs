//! The repository's benchmark: three workloads run through the public
//! entry points of the MorphQPV verifier, each graded operation by
//! operation against known answers from an independent exact check.
//!
//! - [`corpus`]: the paper's programs on the plain verification path.
//! - [`revise`]: single-gate edit streams through incremental
//!   verification against a disk-backed segment cache.
//! - [`serve`]: open-loop traffic against a spawned `morph-serve --listen`.
//!
//! See `README.md` beside this crate for the metrics and the command.

pub mod corpus;
pub mod emit;
pub mod layers;
pub mod oracle;
pub mod plain;
pub mod revise;
pub mod serve;
pub mod speed;
pub mod stats;

use std::path::PathBuf;

use stats::{EndToEnd, Op};

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for caches and exports (removed afterwards).
    pub work: PathBuf,
    /// The `morph-serve` binary (used by the `serve` workload).
    pub serve_bin: PathBuf,
    /// `docs/trace-schema.json` of the checkout.
    pub trace_schema: PathBuf,
}

/// A metric row: name, value, unit.
pub type Row = (String, f64, String);

/// What one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics of the measured phase.
    pub e2e: EndToEnd,
    /// Every timed operation.
    pub ops: Vec<Op>,
    /// Operations that did not complete (errors, unexpected rejections).
    pub errors: usize,
    /// Integrity problems: undecided known answers, wrong verdicts on a
    /// path that must be exact, trace-lint violations. Empty when the run
    /// is valid.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Row>,
    /// Human-readable report printed ahead of the result line.
    pub report: String,
}

/// Times `repeats` set-ups by `f` (which returns its value and its
/// seconds) and returns the last value with the [`stats::trimmed_mean`]
/// of the times.
pub fn repeated_setup<T>(repeats: usize, mut f: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let (value, secs) = f();
        times.push(secs);
        last = Some(value);
    }
    (
        last.expect("at least one repeat"),
        stats::trimmed_mean(&times),
    )
}

/// Set-up repetitions of `serve`, whose set-up starts and primes a server.
pub const SETUP_REPEATS: usize = 10;

/// What [`run_passes`] measured, per chunk.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall seconds of each chunk, in order, less the reference's time
    /// ([`speed`]).
    pub chunk_s: Vec<f64>,
    /// CPU seconds this process spent in each chunk, less the reference's
    /// time.
    pub cpu_s: Vec<f64>,
    /// Each chunk's [`speed::Sample::slowdown`] (1 where nothing ran the
    /// reference).
    pub slowdown: Vec<f64>,
    /// The set-up repetitions `between` timed before the chunks.
    pub setup_s: Vec<f64>,
    /// Peak resident MiB of this process during the chunks.
    pub rss_mb: f64,
}

impl Measured {
    /// One chunk measured from outside: no reference ran, so its times
    /// stay as measured.
    pub fn whole(wall_s: f64, cpu_s: f64, rss_mb: f64) -> Self {
        Measured {
            chunk_s: vec![wall_s],
            cpu_s: vec![cpu_s],
            slowdown: vec![1.0],
            setup_s: Vec::new(),
            rss_mb,
        }
    }

    /// Wall seconds of all chunks.
    pub fn wall_s(&self) -> f64 {
        self.chunk_s.iter().sum()
    }

    /// How many of `ops` operations each chunk holds, and each chunk's
    /// wall seconds and slowdown. Every chunk runs as many operations, so
    /// the operations split evenly; if a failure left them uneven, the run
    /// counts as one chunk.
    pub fn chunks(&self, ops: usize) -> (usize, Vec<(f64, f64)>) {
        let n = self.chunk_s.len().max(1);
        if ops % n == 0 {
            let chunks = self.chunk_s.iter().copied();
            (
                (ops / n).max(1),
                chunks.zip(self.slowdown.iter().copied()).collect(),
            )
        } else {
            let mean = self.slowdown.iter().sum::<f64>() / n as f64;
            (ops.max(1), vec![(self.wall_s(), mean)])
        }
    }

    /// `ops`, the operations of the chunks in order, with each latency
    /// divided by its chunk's slowdown.
    pub fn at_reference_speed(&self, mut ops: Vec<Op>) -> Vec<Op> {
        let (per_chunk, chunks) = self.chunks(ops.len());
        for (ops, (_, slowdown)) in ops.chunks_mut(per_chunk).zip(chunks) {
            for op in ops {
                op.ms /= slowdown;
            }
        }
        ops
    }
}

/// Runs whole passes of a workload for about `seconds`: at least one,
/// then another while it would end no later than half a pass past the
/// budget. A pass is `chunks` calls of `chunk(0..chunks)`, each timed on
/// its own; a chunk that runs [`speed::after_op`] after its operations
/// gets their slowdown. `between` runs untimed before every chunk; the workloads repeat their
/// set-up there and return its seconds, so set-up is sampled all through
/// the run rather than in the few moments before it. Wall time, CPU time
/// and peak RSS count only the chunks: the peak is reset after `between`
/// and read as soon as the chunk ends, so set-up and the known answers do
/// not count.
pub fn run_passes(
    seconds: f64,
    chunks: usize,
    mut between: impl FnMut() -> Option<f64>,
    mut chunk: impl FnMut(usize),
) -> Measured {
    let t0 = std::time::Instant::now();
    let mut m = Measured {
        chunk_s: Vec::new(),
        cpu_s: Vec::new(),
        slowdown: Vec::new(),
        setup_s: Vec::new(),
        rss_mb: 0.0,
    };
    let mut passes = 0;
    loop {
        for c in 0..chunks {
            let setup_s = between();
            stats::reset_peak_rss();
            speed::take();
            let (t, cpu) = (std::time::Instant::now(), stats::cpu_seconds("self"));
            chunk(c);
            let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), stats::cpu_seconds("self") - cpu);
            m.rss_mb = m.rss_mb.max(stats::peak_rss_mb("self"));
            let sample = speed::take();
            m.chunk_s.push(wall_s - sample.spent_s);
            m.cpu_s.push(cpu_s - sample.spent_s);
            m.slowdown.push(sample.slowdown);
            m.setup_s.extend(setup_s);
        }
        passes += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes as f64 > seconds {
            return m;
        }
    }
}

/// A 64-bit mix of `seed` and `salt` (SplitMix64 finalizer), used to
/// derive per-program and per-stream seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
