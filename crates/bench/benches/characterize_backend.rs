//! Backend-selection benches: one Clifford workload characterized on the
//! dense, stabilizer, and sparse backends at n ∈ {10, 16, 24}.
//!
//! The workload is a GHZ-spine Clifford circuit — one superposing `H`,
//! then layered monomial rounds (CX chain, S wall, CZ pairs) — so every
//! backend can represent it: the tableau takes it whole (all-Clifford),
//! and the sparse register never exceeds `2^(|input| + 1)` nonzeros. The
//! dense arm is skipped at n = 24 (2^24 amplitudes per gate pass is not
//! bench-feasible); the fast backends still run there, which is the point
//! of having them.
//!
//! Two further groups probe the sparse fast path specifically:
//!
//! - `bounded_fill` — a **non-Clifford** workload (T walls between CX
//!   chains after an 8-qubit H prefix) whose support is permutation- and
//!   diagonal-bound at 2^8 nonzeros: the stabilizer cannot take it, the
//!   dense engine pays 2^n per gate, and the sparse register never grows,
//!   so this isolates the sparse kernels' per-nonzero cost.
//! - `sparse_layout` — the same bounded-fill gate stream applied directly
//!   (no characterization harness) to the current sorted-vec register and
//!   to an in-bench `MapSparse` reference reproducing the previous
//!   `BTreeMap` layout, so the layout change is measured apples-to-apples.
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (fewer layers,
//! samples, and timing repetitions). Set `MORPH_BENCH_JSON=path` to record
//! the medians — BENCH_8.json in the repo root holds a full run (its
//! predecessor BENCH_7.json predates the `bounded_fill`/`sparse_layout`
//! groups and the sorted-vec layout); CI asserts the ≥ 10×
//! dense-vs-stabilizer gap and the ≥ 3× sorted-vec-vs-map gap from a
//! quick-mode report.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_backend::{Simulator, SparseSim};
use morph_linalg::C64;
use morph_qprog::Circuit;
use morph_qsim::{Gate, NoiseModel};
use morph_tomography::ReadoutMode;
use morphqpv::{try_characterize, BackendMode, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Register widths under comparison.
const SIZES: [usize; 3] = [10, 16, 24];

/// Widest register the dense arm still runs at.
const DENSE_MAX_QUBITS: usize = 16;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

/// The GHZ-spine Clifford workload (see module docs).
fn workload(n: usize) -> Circuit {
    let layers = if quick() { 2 } else { 4 };
    let mut c = Circuit::new(n);
    c.h(0);
    for _ in 0..layers {
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in (0..n).step_by(2) {
            c.s(q);
        }
        for q in (0..n - 1).step_by(3) {
            c.cz(q, q + 1);
        }
    }
    c.tracepoint(1, &[0, 1]);
    c
}

/// The bounded-fill non-Clifford workload (see module docs): an H prefix
/// pins the support at `2^min(8, n-1)` nonzeros, then T walls (diagonal)
/// and CX chains (permutation) churn every amplitude each layer without
/// ever growing the support — or triggering the adaptive switch.
fn bounded_fill(n: usize) -> Circuit {
    let layers = if quick() { 2 } else { 4 };
    let mut c = Circuit::new(n);
    for q in 0..8.min(n - 1) {
        c.h(q);
    }
    for _ in 0..layers {
        for q in 0..n {
            c.t(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c.tracepoint(1, &[0, 1]);
    c
}

/// The bounded-fill gate stream as a raw gate list, for the layout micro
/// benches that bypass the characterization harness.
fn bounded_fill_gates(n: usize) -> Vec<Gate> {
    bounded_fill(n)
        .instructions()
        .iter()
        .filter_map(|inst| match inst {
            morph_qprog::Instruction::Gate(g) => Some(g.clone()),
            _ => None,
        })
        .collect()
}

/// The previous sparse layout, reproduced for the `sparse_layout` micro
/// group: a `BTreeMap<usize, C64>` keyed by basis index, group bases
/// re-sorted per gate, one map probe per gathered amplitude. Only the
/// kernels the bounded-fill stream needs (H, T, CX) are carried over.
struct MapSparse {
    n: usize,
    amps: BTreeMap<usize, C64>,
}

impl MapSparse {
    fn new(n: usize) -> Self {
        let mut amps = BTreeMap::new();
        amps.insert(0usize, C64::ONE);
        MapSparse { n, amps }
    }

    fn shift(&self, qubit: usize) -> usize {
        self.n - 1 - qubit
    }

    fn get(&self, idx: usize) -> C64 {
        self.amps.get(&idx).copied().unwrap_or(C64::ZERO)
    }

    fn set(&mut self, idx: usize, v: C64) {
        if v == C64::ZERO {
            self.amps.remove(&idx);
        } else {
            self.amps.insert(idx, v);
        }
    }

    fn touched_bases(&self, group_mask: usize) -> Vec<usize> {
        let mut bases: Vec<usize> = self.amps.keys().map(|&k| k & !group_mask).collect();
        bases.sort_unstable();
        bases.dedup();
        bases
    }

    fn apply_gate(&mut self, gate: &Gate) {
        match gate {
            Gate::H(q) => {
                let h = 1.0 / 2f64.sqrt();
                let mask = 1usize << self.shift(*q);
                for base in self.touched_bases(mask) {
                    let a0 = self.get(base);
                    let a1 = self.get(base | mask);
                    self.set(base, (a0 + a1).scale(h));
                    self.set(base | mask, (a0 - a1).scale(h));
                }
            }
            Gate::T(q) => {
                let mask = 1usize << self.shift(*q);
                let phase = C64::cis(std::f64::consts::FRAC_PI_4);
                for (&i, v) in self.amps.iter_mut() {
                    if i & mask != 0 {
                        *v *= phase;
                    }
                }
                self.amps.retain(|_, v| *v != C64::ZERO);
            }
            Gate::CX(c, t) => {
                let cmask = 1usize << self.shift(*c);
                let tmask = 1usize << self.shift(*t);
                let old = std::mem::take(&mut self.amps);
                for (i, a) in old {
                    let j = if i & cmask != 0 { i ^ tmask } else { i };
                    self.amps.insert(j, a);
                }
            }
            other => unreachable!("bounded-fill stream has no {other:?}"),
        }
    }
}

fn config(backend: BackendMode, samples: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        n_samples: samples,
        ensemble: morph_clifford::InputEnsemble::Clifford,
        readout: ReadoutMode::Exact,
        // Input on a 4-qubit subregister: all arms execute the full
        // n-qubit circuit per input, and the sparse support stays bounded.
        input_qubits: (0..4).collect(),
        noise: NoiseModel::noiseless(),
        parallelism: 1,
        backend,
    }
}

fn bench_backends(c: &mut Criterion) {
    let samples = if quick() { 2 } else { 4 };
    let mut group = c.benchmark_group("characterize_backend");
    group.sample_size(if quick() { 3 } else { 10 });
    for n in SIZES {
        let circuit = workload(n);
        for (label, backend) in [
            ("dense", BackendMode::Dense),
            ("stabilizer", BackendMode::Stabilizer),
            ("sparse", BackendMode::Sparse),
        ] {
            if backend == BackendMode::Dense && n > DENSE_MAX_QUBITS {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, n), &backend, |b, &backend| {
                let cfg = config(backend, samples);
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(17);
                    try_characterize(
                        std::hint::black_box(&circuit),
                        &cfg,
                        &mut rng,
                        &CancelToken::new(),
                    )
                    .expect("characterization runs")
                });
            });
        }
    }
    group.finish();
}

/// The non-Clifford bounded-fill comparison: dense pays `2^n` per gate,
/// the sparse register holds 2^8 nonzeros throughout (the stabilizer
/// cannot represent the T walls at all, so it has no arm here).
fn bench_bounded_fill(c: &mut Criterion) {
    let samples = if quick() { 2 } else { 4 };
    let mut group = c.benchmark_group("bounded_fill");
    group.sample_size(if quick() { 3 } else { 10 });
    for n in SIZES {
        let circuit = bounded_fill(n);
        for (label, backend) in [
            ("dense", BackendMode::Dense),
            ("sparse", BackendMode::Sparse),
        ] {
            if backend == BackendMode::Dense && n > DENSE_MAX_QUBITS {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, n), &backend, |b, &backend| {
                let cfg = config(backend, samples);
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(17);
                    try_characterize(
                        std::hint::black_box(&circuit),
                        &cfg,
                        &mut rng,
                        &CancelToken::new(),
                    )
                    .expect("characterization runs")
                });
            });
        }
    }
    group.finish();
}

/// The layout micro comparison: one bounded-fill gate stream applied
/// directly to the sorted-vec register (`sorted`) and to the `BTreeMap`
/// reference (`map`). CI asserts `sorted` beats `map` by ≥ 3× at n = 16.
fn bench_sparse_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_layout");
    group.sample_size(if quick() { 3 } else { 10 });
    for n in [16usize, 20] {
        let gates = bounded_fill_gates(n);
        group.bench_with_input(BenchmarkId::new("map", n), &gates, |b, gates| {
            b.iter(|| {
                let mut sim = MapSparse::new(n);
                for g in gates {
                    sim.apply_gate(std::hint::black_box(g));
                }
                std::hint::black_box(sim.amps.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("sorted", n), &gates, |b, gates| {
            b.iter(|| {
                // Spill/switch thresholds out of reach: the micro bench
                // measures the sparse kernels, never the dense fallback.
                let mut sim = SparseSim::with_thresholds(n, usize::MAX, usize::MAX);
                for g in gates {
                    sim.apply_gate(std::hint::black_box(g)).unwrap();
                }
                std::hint::black_box(sim.nonzeros())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_backends,
    bench_bounded_fill,
    bench_sparse_layout
);
criterion_main!(benches);
